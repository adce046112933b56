module Codec = Cmo_support.Codec
module Fsio = Cmo_support.Fsio
module Json = Cmo_obs.Json
module Obs = Cmo_obs.Obs

exception Bad_name of string

(* Cohort names become file names under the registry root, so the
   alphabet is the conservative portable one and the first character
   cannot make the name hidden or option-like. *)
let valid_name name =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length name in
  n > 0 && n <= 64
  && name.[0] <> '.'
  && name.[0] <> '-'
  && String.for_all ok_char name

let checked name = if not (valid_name name) then raise (Bad_name name)

type t = { root : string }

let open_ ~dir =
  Fsio.mkdirs dir;
  { root = dir }

let dir t = t.root

let default = "fleet"

let pack_path t name = Filename.concat t.root (name ^ ".pack")

type info = {
  ci_name : string;
  ci_shards : int;
  ci_damaged : int;
  ci_bytes : int;
}

let exists t name =
  checked name;
  Sys.file_exists (pack_path t name)

let create t name =
  checked name;
  let path = pack_path t name in
  if not (Sys.file_exists path) then
    Fsio.close_append ~fsync:true (Fsio.open_append path)

(* Reads never raise on damage: an unreadable pack is all-skipped, a
   damaged one decodes its survivors (Ingest resynchronizes on the
   frame magic).  One read yields the decodable shards, the damaged
   frame count and the pack's size; a missing pack is empty. *)
let load_pack t name =
  checked name;
  let path = pack_path t name in
  if not (Sys.file_exists path) then ([], 0, 0)
  else match Fsio.read_file path with
    | data ->
      let decodable, damaged = Ingest.decode_pack data in
      (decodable, damaged, String.length data)
    | exception Sys_error _ -> ([], 1, 0)

let shards t name =
  let decodable, damaged, _ = load_pack t name in
  (decodable, damaged)

let ingest_into t name new_shards =
  checked name;
  Ingest.append_pack (pack_path t name) new_shards;
  let decodable, _ = shards t name in
  if Obs.enabled () then
    Obs.tick "cohort" "ingested" (List.length new_shards);
  List.length decodable

(* ---- canonical pulls ---- *)

let pull t ~policy name =
  let shards, skipped = shards t name in
  Ingest.ingest ~policy ~skipped shards

let remove t name =
  checked name;
  let path = pack_path t name in
  if Sys.file_exists path then Fsio.remove path

(* ---- listing and GC ---- *)

let names t =
  match Sys.readdir t.root with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           match Filename.chop_suffix_opt ~suffix:".pack" e with
           | Some name when valid_name name -> Some name
           | _ -> None)
    |> List.sort String.compare
  | exception Sys_error _ -> []

let info_of t name =
  let decodable, damaged, bytes = load_pack t name in
  {
    ci_name = name;
    ci_shards = List.length decodable;
    ci_damaged = damaged;
    ci_bytes = bytes;
  }

let list t = List.map (info_of t) (names t)

type gc_stats = {
  gc_cohorts : int;
  gc_removed : int;
  gc_kept_shards : int;
  gc_damage_dropped : int;
  gc_bytes_reclaimed : int;
}

let gc ?(drop = []) t =
  List.iter checked drop;
  (* A crash during a previous compaction can leave a temp pack; it
     was never renamed into place, so it is garbage by definition. *)
  (match Sys.readdir t.root with
  | entries ->
    Array.iter
      (fun e ->
        if Filename.check_suffix e ".gctmp" then
          Fsio.remove (Filename.concat t.root e))
      entries
  | exception Sys_error _ -> ());
  let removed = ref 0 in
  List.iter
    (fun name ->
      if exists t name then begin
        remove t name;
        incr removed
      end)
    drop;
  let kept = ref 0 and damage = ref 0 and reclaimed = ref 0 in
  let survivors = names t in
  List.iter
    (fun name ->
      let decodable, skipped = shards t name in
      kept := !kept + List.length decodable;
      if skipped > 0 then begin
        (* Compact: write survivors to a temp pack, rename over the
           original.  A crash leaves either the damaged-but-readable
           old pack or the clean new one — pulls are byte-identical
           either way, because the reader already skipped the frames
           compaction discards. *)
        damage := !damage + skipped;
        let path = pack_path t name in
        let old_bytes =
          match Fsio.read_file path with
          | data -> String.length data
          | exception Sys_error _ -> 0
        in
        let tmp = path ^ ".gctmp" in
        Ingest.write_pack tmp decodable;
        let new_bytes = String.length (Fsio.read_file tmp) in
        Fsio.rename tmp path;
        reclaimed := !reclaimed + max 0 (old_bytes - new_bytes)
      end)
    survivors;
  {
    gc_cohorts = List.length survivors;
    gc_removed = !removed;
    gc_kept_shards = !kept;
    gc_damage_dropped = !damage;
    gc_bytes_reclaimed = !reclaimed;
  }

(* ---- the selection-diff engine ---- *)

module Diff = struct
  type hot_set = {
    hs_label : string;
    hs_modules : (string * float) list;
    hs_functions : (string * float) list;
  }

  type delta = { d_name : string; d_base : float; d_canary : float }

  type verdict = Flip | No_flip

  type report = {
    r_threshold : float;
    r_base : string;
    r_canary : string;
    r_mod_in : delta list;
    r_mod_out : delta list;
    r_fun_in : delta list;
    r_fun_out : delta list;
    r_shifts : delta list;
    r_max_shift : float;
    r_verdict : verdict;
  }

  let default_threshold = 0.02

  (* Symmetric difference of two weighted name sets: [(entered,
     left)], entered sorted by canary share, left by base share,
     heaviest first, names breaking ties — deterministic, so equal
     inputs give byte-equal reports. *)
  let sym_diff base canary =
    let find name l =
      match List.assoc_opt name l with Some s -> s | None -> 0.0
    in
    let entered =
      List.filter_map
        (fun (name, share) ->
          if List.mem_assoc name base then None
          else Some { d_name = name; d_base = 0.0; d_canary = share })
        canary
    in
    let left =
      List.filter_map
        (fun (name, share) ->
          if List.mem_assoc name canary then None
          else Some { d_name = name; d_base = share; d_canary = 0.0 })
        base
    in
    let by_share side =
      List.sort (fun a b ->
          match compare (side b) (side a) with
          | 0 -> String.compare a.d_name b.d_name
          | c -> c)
    in
    ( by_share (fun d -> d.d_canary) entered,
      by_share (fun d -> d.d_base) left,
      find )

  let diff ?(threshold = default_threshold) ~base canary =
    let mod_in, mod_out, find_mod =
      sym_diff base.hs_modules canary.hs_modules
    in
    let fun_in, fun_out, _ =
      sym_diff base.hs_functions canary.hs_functions
    in
    let shifts =
      List.filter_map
        (fun (name, bshare) ->
          if not (List.mem_assoc name canary.hs_modules) then None
          else
            let cshare = find_mod name canary.hs_modules in
            if cshare = bshare then None
            else Some { d_name = name; d_base = bshare; d_canary = cshare })
        base.hs_modules
      |> List.sort (fun a b ->
             let shift d = abs_float (d.d_canary -. d.d_base) in
             match compare (shift b) (shift a) with
             | 0 -> String.compare a.d_name b.d_name
             | c -> c)
    in
    let max_shift =
      List.fold_left
        (fun acc d -> max acc (abs_float (d.d_canary -. d.d_base)))
        0.0 shifts
    in
    (* The verdict is about module selection — the unit of CMO
       recompilation: a flip is a module crossing the hot-set boundary
       while carrying at least [threshold] of the hot weight on
       whichever side it is hot.  Function churn and share drift are
       reported but never page anyone by themselves. *)
    let crossing =
      List.exists (fun d -> d.d_canary >= threshold) mod_in
      || List.exists (fun d -> d.d_base >= threshold) mod_out
    in
    {
      r_threshold = threshold;
      r_base = base.hs_label;
      r_canary = canary.hs_label;
      r_mod_in = mod_in;
      r_mod_out = mod_out;
      r_fun_in = fun_in;
      r_fun_out = fun_out;
      r_shifts = shifts;
      r_max_shift = max_shift;
      r_verdict = (if crossing then Flip else No_flip);
    }

  let report_version = 1

  let write_delta w d =
    Codec.Writer.string w d.d_name;
    Codec.Writer.float w d.d_base;
    Codec.Writer.float w d.d_canary

  let read_delta r =
    let d_name = Codec.Reader.string r in
    let d_base = Codec.Reader.float r in
    let d_canary = Codec.Reader.float r in
    { d_name; d_base; d_canary }

  let encode rep =
    let w = Codec.Writer.create () in
    Codec.Writer.byte w report_version;
    Codec.Writer.float w rep.r_threshold;
    Codec.Writer.string w rep.r_base;
    Codec.Writer.string w rep.r_canary;
    List.iter
      (fun deltas -> Codec.Writer.list w (write_delta w) deltas)
      [ rep.r_mod_in; rep.r_mod_out; rep.r_fun_in; rep.r_fun_out;
        rep.r_shifts ];
    Codec.Writer.float w rep.r_max_shift;
    Codec.Writer.bool w (rep.r_verdict = Flip);
    Codec.Writer.contents w

  let decode =
    Codec.Reader.exact "cohort report" @@ fun r ->
    let v = Codec.Reader.byte r in
    if v <> report_version then
      Codec.Reader.corrupt (Printf.sprintf "cohort report version %d" v);
    let r_threshold = Codec.Reader.float r in
    let r_base = Codec.Reader.string r in
    let r_canary = Codec.Reader.string r in
    let deltas () = Codec.Reader.list r read_delta in
    let r_mod_in = deltas () in
    let r_mod_out = deltas () in
    let r_fun_in = deltas () in
    let r_fun_out = deltas () in
    let r_shifts = deltas () in
    let r_max_shift = Codec.Reader.float r in
    let r_verdict = if Codec.Reader.bool r then Flip else No_flip in
    { r_threshold; r_base; r_canary; r_mod_in; r_mod_out; r_fun_in;
      r_fun_out; r_shifts; r_max_shift; r_verdict }

  let json_of_deltas deltas =
    Json.Arr
      (List.map
         (fun d ->
           Json.Obj
             [
               ("name", Json.Str d.d_name);
               ("base", Json.Num d.d_base);
               ("canary", Json.Num d.d_canary);
             ])
         deltas)

  let report_to_json rep =
    Json.Obj
      [
        ("base", Json.Str rep.r_base);
        ("canary", Json.Str rep.r_canary);
        ("threshold", Json.Num rep.r_threshold);
        ("modules_in", json_of_deltas rep.r_mod_in);
        ("modules_out", json_of_deltas rep.r_mod_out);
        ("functions_in", json_of_deltas rep.r_fun_in);
        ("functions_out", json_of_deltas rep.r_fun_out);
        ("shifts", json_of_deltas rep.r_shifts);
        ("max_shift", Json.Num rep.r_max_shift);
        ( "verdict",
          Json.Str (match rep.r_verdict with Flip -> "flip" | No_flip -> "no-flip")
        );
      ]

  let pp_report ppf rep =
    let section title side deltas =
      if deltas <> [] then begin
        Format.fprintf ppf "  %s:@." title;
        List.iter
          (fun d ->
            Format.fprintf ppf "    %-24s base=%.4f canary=%.4f%s@."
              d.d_name d.d_base d.d_canary
              (if side d >= rep.r_threshold then "  [over threshold]" else ""))
          deltas
      end
    in
    Format.fprintf ppf "cohort-diff %s -> %s (threshold %.3f)@." rep.r_base
      rep.r_canary rep.r_threshold;
    section "modules entering hot set" (fun d -> d.d_canary) rep.r_mod_in;
    section "modules leaving hot set" (fun d -> d.d_base) rep.r_mod_out;
    section "functions entering hot set" (fun d -> d.d_canary) rep.r_fun_in;
    section "functions leaving hot set" (fun d -> d.d_base) rep.r_fun_out;
    if rep.r_shifts <> [] then begin
      Format.fprintf ppf "  share shifts (common modules):@.";
      List.iter
        (fun d ->
          Format.fprintf ppf "    %-24s %.4f -> %.4f (%+.4f)@." d.d_name
            d.d_base d.d_canary (d.d_canary -. d.d_base))
        rep.r_shifts
    end;
    match rep.r_verdict with
    | Flip ->
      let crossing =
        List.length
          (List.filter (fun d -> d.d_canary >= rep.r_threshold) rep.r_mod_in)
        + List.length
            (List.filter (fun d -> d.d_base >= rep.r_threshold) rep.r_mod_out)
      in
      Format.fprintf ppf
        "cohort-diff: FLIP (%d module(s) crossed the hot-set boundary above \
         threshold %.3f)@."
        crossing rep.r_threshold
    | No_flip ->
      Format.fprintf ppf "cohort-diff: no-flip (max share shift %.4f)@."
        rep.r_max_shift
end
