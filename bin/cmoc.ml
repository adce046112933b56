(* cmoc: the command-line driver for the CMO toolchain.

   Subcommands mirror the production workflow the paper describes:

     cmoc compile a.mc b.mc -O4 -P --profile app.prof --run
     cmoc train a.mc b.mc -o app.prof --input 40,17
     cmoc dump a.mc --what il|asm
     cmoc gen --bench gcc --dir ./src
     cmoc bench-info

   Sources are MiniC files; the module name is the file's basename. *)

module Pipeline = Cmo_driver.Pipeline
module Options = Cmo_driver.Options
module Buildsys = Cmo_driver.Buildsys
module Db = Cmo_profile.Db
module Vm = Cmo_vm.Vm
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite
module Fsio = Cmo_support.Fsio
module Faults = Cmo_support.Faults
module Json = Cmo_obs.Json
module Proto = Cmo_server.Proto
module Client = Cmo_server.Client
module Cohort = Cmo_profile.Cohort
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source_of_path path =
  let name = Filename.remove_extension (Filename.basename path) in
  { Pipeline.name; text = read_file path }

let parse_input s =
  if s = "" then [||]
  else
    String.split_on_char ',' s
    |> List.map (fun x -> Int64.of_string (String.trim x))
    |> Array.of_list

(* ---- common arguments ---- *)

let sources_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"SOURCE" ~doc:"MiniC source files.")

let level_arg =
  let level =
    Arg.enum [ ("1", Options.O1); ("2", Options.O2); ("4", Options.O4) ]
  in
  Arg.(value & opt level Options.O2 & info [ "O" ] ~docv:"LEVEL"
         ~doc:"Optimization level: 1 (basic blocks), 2 (intraprocedural), 4 (cross-module).")

let pbo_arg =
  Arg.(value & flag & info [ "P"; "pbo" ] ~doc:"Profile-based optimization (+P).")

let profile_arg =
  Arg.(value & opt (some file) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Profile database produced by $(b,cmoc train).")

let selectivity_arg =
  Arg.(value & opt (some float) None & info [ "select" ] ~docv:"PERCENT"
         ~doc:"Coarse-grained selectivity: compile only the modules containing the hottest PERCENT of call sites with CMO.")

let input_arg =
  Arg.(value & opt string "" & info [ "input" ] ~docv:"N,N,..."
         ~doc:"Program input vector (read by the arg intrinsic).")

let jobs_arg =
  Arg.(value & opt int Options.default_jobs & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel pipeline phases \
               (frontend, link-time CMO components, codegen), and the \
               most partitions a distributed build runs on this host \
               at once.  Remote $(b,--workers) endpoints add their own \
               width.  Any N produces byte-identical output; defaults \
               to \\$CMO_JOBS or 1.")

let machine_memory_arg =
  Arg.(value & opt int 256 & info [ "machine-mb" ] ~docv:"MB"
         ~doc:"Modeled machine memory for NAIM thresholds.")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Run the IL verifier after every optimization phase of \
               every routine, failing the build with a named \
               phase/function/instruction diagnostic on the first \
               broken invariant.  Also enabled by \\$CMO_CHECK.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome-trace (Perfetto-loadable) JSON of the \
               build to FILE: stage and per-module spans, per-worker \
               tracks, cache and loader counters, and the NAIM memory \
               timeline.  Also enabled by \\$CMO_TRACE.  Tracing never \
               changes the built image or the cache keys.")

let fault_plan_arg =
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"SPEC"
         ~doc:"Install a deterministic fault plan before building: \
               a comma-separated spec such as $(b,count), \
               $(b,crash@12,seed=3), $(b,partition@5) or $(b,kill@4) \
               covering disk, wire and worker-kill faults (grammar in \
               lib/support/faults.mli).  Also read from \\$CMO_FAULT; \
               the flag wins.  When a plan is active each site's \
               operation and injection counts are reported on stderr \
               after the build.")

(* Only the parent build process installs a plan: cmoc-worker never
   does, so a plan exercises the dialing side of every link once. *)
let install_fault_plan spec =
  Option.iter
    (fun spec ->
      match Faults.install spec with
      | Ok () -> ()
      | Error m ->
        raise
          (Pipeline.Compile_error (Printf.sprintf "bad fault plan %S: %s" spec m)))
    spec

let report_fault_plan () =
  let site : 'k. string -> string -> 'k Faults.site -> unit =
   fun label unit s ->
    Printf.eprintf "%s: %d %s ops, %d injected, %d retries\n%!" label
      (Faults.op_count s) unit (Faults.injected s) (Faults.retries s)
  in
  if Faults.active () then begin
    site "fault plan" "io" Faults.fs;
    site "net fault plan" "net" Faults.net;
    site "proc fault plan" "proc" Faults.proc
  end

(* Every subcommand's action runs under [guard]: whatever the user can
   act on — a bad source, an unreadable or corrupt file, a refused
   daemon request, a simulated crash — is one line on stderr and exit
   status 1 (see [main]'s [~term_err]), never an uncaught exception. *)
let guard f =
  match f () with
  | () -> `Ok ()
  | exception e ->
    let msg =
      match e with
      | Pipeline.Compile_error m | Sys_error m | Client.Protocol_error m
      | Cmo_support.Codec.Reader.Corrupt m ->
        m
      | Vm.Fault m -> "runtime fault: " ^ m
      | Cmo_llo.Asm.Parse_error (line, m) -> Printf.sprintf "line %d: %s" line m
      | Cohort.Bad_name n -> "bad cohort name: " ^ n
      | Unix.Unix_error (e, _, _) -> "cannot reach cmocd: " ^ Unix.error_message e
      | e when Fsio.is_crash e ->
        report_fault_plan ();
        "simulated crash (fault plan): build aborted"
      | e -> raise e
    in
    `Error (false, msg)

(* A missing, unreadable or corrupt profile degrades to building
   without one — PBO is an optimization, not a correctness input. *)
let load_profile = function
  | None -> None
  | Some path -> (
    match Db.load path with
    | db -> Some db
    | exception (Sys_error reason | Cmo_support.Codec.Reader.Corrupt reason) ->
      Logs.warn (fun f ->
          f "profile %s unusable (%s); building without it" path reason);
      None
    | exception End_of_file ->
      Logs.warn (fun f ->
          f "profile %s truncated; building without it" path);
      None)

let log_arg =
  let level =
    Arg.enum
      [ ("quiet", None); ("info", Some Logs.Info); ("debug", Some Logs.Debug) ]
  in
  Arg.(value & opt level None & info [ "log" ] ~docv:"LEVEL"
         ~doc:"Compiler diagnostics: quiet, info (stage timings), debug (loader traffic).")

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

let report_json_arg =
  Arg.(value & opt (some string) None & info [ "report-json" ] ~docv:"FILE"
         ~doc:"Write the machine-readable compilation report (every \
               numeric report field plus derived aggregates) to FILE as \
               JSON.")

let write_report_json file json_string =
  Option.iter (fun f -> Fsio.atomic_write f json_string) file

(* ---- remote mode (the cmocd client) ---- *)

let remote_flag =
  Arg.(value & flag & info [ "remote" ]
         ~doc:"Send the build to a running $(b,cmocd) instead of \
               compiling in-process; the daemon's warm cache serves \
               unchanged modules.  The request carries every build \
               option (-O, -P, --select, -j, --check, --machine-mb), \
               the --profile database and the fault plan, so artifacts \
               are byte-identical to a local build with the same flags; \
               tracing and distribution follow the daemon's own \
               settings.  The socket comes from --socket or \
               \\$CMO_SOCKET.")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"The $(b,cmocd) Unix-domain socket (with --remote, or \
               as the remote artifact cache with $(b,cmoc build \
               --dist)).  Defaults to \\$CMO_SOCKET.")

let dist_flag =
  Arg.(value & flag & info [ "dist" ]
         ~doc:"Distributed link-time CMO: run +O4 partitions in \
               isolated $(b,cmoc-worker) processes instead of worker \
               domains.  Any worker loss degrades the affected \
               partition back to in-process execution; output is \
               byte-identical either way.  Also enabled by \
               \\$CMO_DIST.  The worker binary comes from \
               \\$CMO_DIST_WORKER or is found next to cmoc.")

let workers_arg =
  Arg.(value & opt_all string [] & info [ "workers" ] ~docv:"HOST:PORT,..."
         ~doc:"Remote $(b,cmoc-worker --listen) endpoints to place \
               distributed partitions on, alongside (or instead of) \
               spawned local workers.  Each live endpoint keeps one \
               partition job in flight, whatever $(b,-j) is.  \
               Comma-separated, repeatable.  \
               Implies --dist.  Also read from \\$CMO_DIST_WORKERS; \
               the flag wins.  A worker whose version handshake does \
               not match is refused and its jobs run locally — output \
               stays byte-identical.")

(* --socket, else $CMO_SOCKET. *)
let socket_of flag =
  match flag with Some _ -> flag | None -> Options.env.Options.env_socket

let resolve_socket flag =
  match socket_of flag with
  | Some s -> s
  | None ->
    raise (Pipeline.Compile_error "--remote needs --socket or $CMO_SOCKET")

(* ---- the build front end, shared by compile and build ---- *)

(* What one build is asked to do, resolved from flags and environment
   once.  The profile loads lazily: a local build forces it after
   installing the fault plan, so the plan numbers the profile read. *)
type front = {
  options : Options.t;
  profile : Db.t option Lazy.t;
  fault : string option;  (* --fault-plan, else $CMO_FAULT *)
  socket : string option;  (* --socket, else $CMO_SOCKET *)
  dist_given : bool;  (* --dist or --workers on the command line *)
}

let front_term =
  let front level pbo profile selectivity machine_mb jobs check trace fault
      log dist workers socket =
    setup_logs log;
    (* --workers accepts both repeats and comma lists; normalize to the
       flat endpoint list Options carries. *)
    let workers =
      List.concat_map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> ""))
        workers
    in
    let dist_given = dist || workers <> [] in
    (* [Options.o2] carries the environment's defaults ($CMO_JOBS,
       $CMO_CHECK, $CMO_TRACE, $CMO_DIST, $CMO_DIST_WORKERS); the flags
       override them. *)
    let env = Options.o2 in
    let options =
      {
        env with
        Options.level;
        pbo;
        selectivity;
        machine_memory = machine_mb * 1024 * 1024;
        jobs = max 1 jobs;
        check = check || env.Options.check;
        trace = (if trace = None then env.Options.trace else trace);
        dist = dist_given || env.Options.dist;
        workers = (if workers = [] then env.Options.workers else workers);
      }
    in
    let fault = if fault = None then Options.env.Options.env_fault else fault in
    { options; profile = lazy (load_profile profile); fault;
      socket = socket_of socket; dist_given }
  in
  Term.(const front $ level_arg $ pbo_arg $ profile_arg $ selectivity_arg
        $ machine_memory_arg $ jobs_arg $ check_arg $ trace_arg
        $ fault_plan_arg $ log_arg $ dist_flag $ workers_arg $ socket_arg)

(* One build over the wire: the request carries the front end's
   options, profile and fault plan; returns the relinked image
   (deterministic from the returned object bytes) and the server's
   report JSON.  The fault plan applies on the server, to this request
   only. *)
let remote_compile (front : front) sources =
  let socket = resolve_socket front.socket in
  let req =
    {
      Proto.tag = Printf.sprintf "cmoc-%d" (Unix.getpid ());
      options = front.options;
      profile = Option.map Db.encode (Lazy.force front.profile);
      fault = front.fault;
      sources;
    }
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Pipeline.Compile_error m)) fmt in
  match Client.with_connect ~socket (fun c -> Client.build c req) with
  | exception Client.Protocol_error m -> fail "cmocd protocol error: %s" m
  | Proto.Rejected { reason; _ } -> fail "cmocd rejected the build: %s" reason
  | Proto.Failed { reason; _ } -> fail "cmocd build failed: %s" reason
  | Proto.Built { objects; routine_order; report; _ } -> (
    let objects = List.map Cmo_link.Objfile.decode objects in
    match Cmo_link.Linker.link ~routine_order objects with
    | Ok image -> (image, report)
    | Error errs ->
      fail "%s"
        (Format.asprintf "@[<v>link of remote objects failed:@,%a@]"
           (Format.pp_print_list ~pp_sep:Format.pp_print_cut
              Cmo_link.Linker.pp_error)
           errs))
  | _ -> fail "cmocd protocol error: unexpected reply"

(* ---- compile ---- *)

let compile_cmd =
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Execute the linked image on the VM.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the compilation report.")
  in
  let map_flag =
    Arg.(value & flag & info [ "map" ] ~doc:"Print the linker map.")
  in
  let hot_flag =
    Arg.(value & flag & info [ "hot-report" ]
           ~doc:"With --run: print the routines the cycles went to, hottest first.")
  in
  let print_outcome ~hot_report (outcome : Vm.outcome) =
    List.iter (Printf.printf "%Ld\n") outcome.Vm.output;
    Printf.printf "exit: %Ld  (%d cycles, %d instructions, %d calls, %d icache misses)\n"
      outcome.Vm.ret outcome.Vm.cycles outcome.Vm.instructions
      outcome.Vm.calls outcome.Vm.icache_misses;
    if hot_report then begin
      Printf.printf "\nflat profile (top 15 routines by cycles):\n";
      List.iteri
        (fun i (name, cyc) ->
          if i < 15 then
            Printf.printf "  %6.2f%%  %10d  %s\n"
              (100.0 *. float_of_int cyc /. float_of_int outcome.Vm.cycles)
              cyc name)
        outcome.Vm.func_cycles
    end
  in
  let action (front : front) paths input run_it verbose map_it hot_report
      remote report_json =
    guard @@ fun () ->
    if remote && front.dist_given then
      raise
        (Pipeline.Compile_error
           "--remote and --dist are mutually exclusive: --remote ships \
            the whole build to cmocd, --dist runs it here on worker \
            processes");
    let sources = List.map source_of_path paths in
    let image, json, print_report =
      if remote then
        let image, json = remote_compile front sources in
        (image, json, fun () -> print_endline json)
      else begin
        install_fault_plan front.fault;
        let build =
          Pipeline.compile ?profile:(Lazy.force front.profile) front.options
            sources
        in
        let report = build.Pipeline.report in
        ( build.Pipeline.image,
          Json.to_string (Pipeline.report_to_json report),
          fun () -> Format.printf "%a@." Pipeline.pp_report report )
      end
    in
    write_report_json report_json json;
    if verbose then print_report ();
    if map_it then Format.printf "%a@." Cmo_link.Image.pp_map image;
    if run_it then
      print_outcome ~hot_report
        (Vm.run ~input:(parse_input input) ~attribute:hot_report image)
    else
      Printf.printf "linked %d instructions\n"
        (Array.length image.Cmo_link.Image.code);
    report_fault_plan ()
  in
  let doc = "Compile (and optionally run) MiniC modules, locally or via cmocd." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(ret (const action $ front_term $ sources_arg $ input_arg $ run_flag
               $ verbose $ map_flag $ hot_flag $ remote_flag $ report_json_arg))

(* ---- train ---- *)

let train_cmd =
  let out_arg =
    Arg.(value & opt string "app.prof" & info [ "o" ] ~docv:"FILE"
           ~doc:"Profile database output path.")
  in
  let inputs_arg =
    Arg.(value & opt_all string [] & info [ "input" ] ~docv:"N,N,..."
           ~doc:"Training input vector (repeatable; runs accumulate).")
  in
  let action paths out inputs =
    guard @@ fun () ->
    let sources = List.map source_of_path paths in
    let inputs =
      match inputs with [] -> [ [||] ] | l -> List.map parse_input l
    in
    let db = Pipeline.train ~inputs sources in
    Db.save db out;
    Printf.printf "wrote %s (%d counters, total count %.0f)\n" out
      (List.length (Db.entries db))
      (Db.total db)
  in
  let doc = "Build instrumented (+I), run training inputs, write the profile database." in
  Cmd.v (Cmd.info "train" ~doc)
    Term.(ret (const action $ sources_arg $ out_arg $ inputs_arg))

(* ---- dump ---- *)

let dump_cmd =
  let what_arg =
    Arg.(value & opt (enum [ ("il", `Il); ("asm", `Asm) ]) `Il
         & info [ "what" ] ~doc:"What to dump: il (frontend output) or asm (machine code).")
  in
  let action paths what =
    guard @@ fun () ->
    let sources = List.map source_of_path paths in
    (match what with
    | `Il ->
      List.iter
        (fun s ->
          let m = Pipeline.frontend_one s in
          Format.printf "%a@." Cmo_il.Ilmod.pp m)
        sources
    | `Asm ->
      List.iter
        (fun s ->
          let m = Pipeline.frontend_one s in
          let globals = m.Cmo_il.Ilmod.globals in
          let codes, _ = Cmo_llo.Llo.compile_module m in
          Cmo_llo.Asm.print_module Format.std_formatter
            ~module_name:m.Cmo_il.Ilmod.mname ~globals codes)
        sources)
  in
  let doc = "Dump intermediate representations." in
  Cmd.v (Cmd.info "dump" ~doc)
    Term.(ret (const action $ sources_arg $ what_arg))

(* ---- gen ---- *)

let gen_cmd =
  let bench_arg =
    Arg.(required & opt (some string) None & info [ "bench" ] ~docv:"NAME"
           ~doc:"Benchmark personality (see $(b,cmoc bench-info)).")
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR"
           ~doc:"Output directory for the generated .mc files.")
  in
  let scale_arg =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Scale the module count by FACTOR.")
  in
  let action bench dir factor =
    guard @@ fun () ->
    match Suite.find bench with
    | exception Not_found ->
      raise (Pipeline.Compile_error ("unknown benchmark " ^ bench))
    | cfg ->
      let cfg = if factor = 1.0 then cfg else Genprog.scale cfg factor in
      let sources = Genprog.generate cfg in
      Fsio.mkdirs dir;
      List.iter
        (fun (name, text) ->
          let path = Filename.concat dir (name ^ ".mc") in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text))
        sources;
      Printf.printf "wrote %d modules (%d lines) to %s\n" (List.length sources)
        (Genprog.source_lines sources) dir;
      Printf.printf "training input: %s\nreference input: %s\n"
        (String.concat ","
           (Array.to_list (Array.map Int64.to_string (Genprog.training_input cfg))))
        (String.concat ","
           (Array.to_list (Array.map Int64.to_string (Genprog.reference_input cfg))))
  in
  let doc = "Generate a synthetic benchmark's MiniC sources." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(ret (const action $ bench_arg $ dir_arg $ scale_arg))

(* ---- assemble ---- *)

let assemble_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE"
           ~doc:"Object file output (default: INPUT with .o).")
  in
  let asm_sources =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.s"
           ~doc:"Assembly listings produced by $(b,cmoc dump --what asm).")
  in
  let action paths out =
    guard @@ fun () ->
    List.iter
      (fun path ->
        let text = read_file path in
        let module_name, globals, codes = Cmo_llo.Asm.parse_module text in
        let obj =
          Cmo_link.Objfile.of_code ~module_name ~globals
            ~source_digest:(Digest.to_hex (Digest.string text))
            codes
        in
        let target =
          match out with
          | Some o when List.length paths = 1 -> o
          | Some _ | None ->
            Filename.remove_extension path ^ ".o"
        in
        Cmo_link.Objfile.save obj target;
        Printf.printf "assembled %s -> %s (%d routines)
" path target
          (List.length codes))
      paths
  in
  let doc = "Assemble a textual listing back into an object file." in
  Cmd.v (Cmd.info "assemble" ~doc) Term.(ret (const action $ asm_sources $ out_arg))

(* ---- isolate ---- *)

let isolate_cmd =
  let module Isolate = Cmo_driver.Isolate in
  let max_ops_arg =
    Arg.(value & opt int 512 & info [ "max-ops" ] ~docv:"N"
           ~doc:"Upper bound for the operation-limit binary search.")
  in
  let action paths profile input max_ops =
    guard @@ fun () ->
    let sources = List.map source_of_path paths in
    let profile = load_profile profile in
    let input = parse_input input in
    let observe options =
      let build = Pipeline.compile ?profile options sources in
      let o = Pipeline.run ~input build in
      (o.Vm.ret, o.Vm.output)
    in
    (* Reference semantics: the minimally optimized build. *)
    let expected = observe Options.o1 in
    let check observed =
      if observed = expected then Isolate.Good else Isolate.Bad observed
    in
    let full = { Options.o4_pbo with Options.pbo = profile <> None } in
    match check (observe full) with
    | Isolate.Good ->
      print_endline
        "no divergence: +O4 agrees with the +O1 baseline on this input"
    | Isolate.Bad _ ->
      print_endline "divergence found; reducing the CMO module set...";
      let module_names = List.map (fun s -> s.Pipeline.name) sources in
      let compile ~cmo_modules =
        observe { full with Options.cmo_modules = Some cmo_modules }
      in
      (match Isolate.isolate_modules ~compile ~check ~modules:module_names with
      | Some (reduced, _) ->
        Printf.printf "minimal failing CMO set: %s\n"
          (String.concat ", " reduced);
        let compile ~limit =
          observe
            { full with
              Options.cmo_modules = Some reduced;
              inline_limit = Some limit }
        in
        (match
           Isolate.isolate_operation_limit ~compile ~check ~max_limit:max_ops
         with
        | Some (n, _) ->
          Printf.printf "guilty operation: inline #%d within that set\n" n
        | None ->
          print_endline
            "failure is not inline-count-monotone; try --max-ops or the \
             scalar rewrite limit")
      | None ->
        print_endline
          "failure vanished during reduction (not module-monotone)")
  in
  let doc =
    "Hunt a cross-module miscompilation: compare +O4 against the +O1 \
     baseline, reduce the CMO module set, then binary-search the inline \
     operation limit (the paper's section 6.3 workflow)."
  in
  Cmd.v (Cmd.info "isolate" ~doc)
    Term.(ret (const action $ sources_arg $ profile_arg $ input_arg $ max_ops_arg))

(* ---- link ---- *)

let link_cmd =
  let obj_args =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.o"
           ~doc:"Object files with code payloads: from $(b,cmoc assemble), or from \
                 $(b,cmoc build) below $(b,-O 4) without $(b,-P).")
  in
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Execute the linked image.")
  in
  let map_flag =
    Arg.(value & flag & info [ "map" ] ~doc:"Print the linker map.")
  in
  let load path =
    try Cmo_link.Objfile.load path
    with Cmo_support.Codec.Reader.Corrupt m ->
      raise (Cmo_support.Codec.Reader.Corrupt (Printf.sprintf "%s: corrupt object file (%s)" path m))
  in
  let action paths input run_it map_it =
    guard @@ fun () ->
    let objects = List.map load paths in
    let image = Pipeline.link objects in
    if map_it then Format.printf "%a@." Cmo_link.Image.pp_map image;
    if run_it then begin
      let o = Vm.run ~input:(parse_input input) image in
      List.iter (Printf.printf "%Ld\n") o.Vm.output;
      Printf.printf "exit: %Ld  (%d cycles)\n" o.Vm.ret o.Vm.cycles
    end
    else
      Printf.printf "linked %d instructions from %d objects\n"
        (Array.length image.Cmo_link.Image.code)
        (List.length objects)
  in
  let doc = "Link object files into an image (and optionally run it)." in
  Cmd.v (Cmd.info "link" ~doc)
    Term.(ret (const action $ obj_args $ input_arg $ run_flag $ map_flag))

(* ---- profile-show ---- *)

let profile_show_cmd =
  let db_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Profile database to inspect.")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N"
           ~doc:"Show the N hottest counters.")
  in
  let action path top =
    guard @@ fun () ->
    let db = Db.load path in
    let entries = Db.entries db in
    Printf.printf "%d counters, total count %.0f
" (List.length entries)
      (Db.total db);
    let hottest =
      List.stable_sort (fun (_, a) (_, b) -> compare b a) entries
    in
    List.iteri
      (fun i (key, count) ->
        if i < top then
          Format.printf "  %12.0f  %a@." count Db.pp_key key)
      hottest
  in
  let doc = "Inspect a profile database (hottest counters first)." in
  Cmd.v (Cmd.info "profile-show" ~doc)
    Term.(ret (const action $ db_arg $ top_arg))

(* ---- profile: fleet ingestion ---- *)

module Ingest = Cmo_profile.Ingest

let fingerprint_of_paths paths =
  Ingest.fingerprint
    (List.map
       (fun p -> (Filename.remove_extension (Filename.basename p), read_file p))
       paths)

let fp_arg =
  Arg.(value & opt string "" & info [ "fp" ] ~docv:"FP"
         ~doc:"Source-version fingerprint (from $(b,cmoc profile \
               fingerprint)).  Empty disables version-skew handling.")

let pack_out_arg =
  Arg.(value & opt string "fleet.shards" & info [ "o" ] ~docv:"FILE"
         ~doc:"Shard pack to append to (created if missing).")

let profile_fingerprint_cmd =
  let action paths =
    guard @@ fun () -> Printf.printf "%s\n" (fingerprint_of_paths paths)
  in
  let doc = "Print the source-version fingerprint shards are stamped with." in
  Cmd.v (Cmd.info "fingerprint" ~doc) Term.(ret (const action $ sources_arg))

let profile_shard_cmd =
  let prof_arg =
    Arg.(required & opt (some file) None & info [ "profile" ] ~docv:"FILE"
           ~doc:"Profile database ($(b,cmoc train) output) to wrap as a shard.")
  in
  let rate_arg =
    Arg.(value & opt float 1.0 & info [ "sample-rate" ] ~docv:"R"
           ~doc:"Sampling rate this profile was recorded at, in (0,1].")
  in
  let weight_arg =
    Arg.(value & opt float 1.0 & info [ "weight" ] ~docv:"W"
           ~doc:"Trust weight of this shard.")
  in
  let age_arg =
    Arg.(value & opt int 0 & info [ "age" ] ~docv:"N"
           ~doc:"Staleness in versions behind the fleet head.")
  in
  let action paths prof out rate weight age =
    guard @@ fun () ->
    let db = Db.load prof in
    let meta =
      {
        Ingest.source_fp = fingerprint_of_paths paths;
        sample_rate = rate;
        weight;
        age;
      }
    in
    Ingest.append_pack out [ { Ingest.meta; db } ];
    let shards, skipped = Ingest.read_pack out in
    Printf.printf "appended to %s (%d shards, %d damaged)\n" out
      (List.length shards) skipped
  in
  let doc = "Wrap a trained profile as a fleet shard and append it to a pack." in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(ret (const action $ sources_arg $ prof_arg $ pack_out_arg $ rate_arg
               $ weight_arg $ age_arg))

let profile_policy_args =
  let decay_arg =
    Arg.(value & opt float 0.9 & info [ "decay-rate" ] ~docv:"R"
           ~doc:"Per-age multiplier for stale shards.")
  in
  let skew_arg =
    Arg.(value & opt float 0.25 & info [ "skew-weight" ] ~docv:"W"
           ~doc:"Multiplier for shards recorded against other source \
                 versions (down-weighted, never dropped).")
  in
  let clamp_arg =
    Arg.(value & opt float 4.0 & info [ "clamp-ratio" ] ~docv:"K"
           ~doc:"Poisoning clamp: cap any shard's weighted mass at K x \
                 the median shard mass (needs >= 3 shards).")
  in
  Term.(const (fun decay skew clamp current_fp ->
            {
              Ingest.current_fp;
              decay_rate = decay;
              skew_weight = skew;
              clamp_ratio = clamp;
            })
        $ decay_arg $ skew_arg $ clamp_arg $ fp_arg)

let pp_ingest_stats (st : Ingest.stats) =
  Printf.printf
    "ingested %d shards (%d skipped, %d skewed, %d clamped, weight %.2f)\n"
    st.Ingest.ing_shards st.Ingest.ing_skipped st.Ingest.ing_skewed
    st.Ingest.ing_clamped st.Ingest.ing_weight

(* The machine-readable twin of [pp_ingest_stats]: the same flat
   numeric-fields-in-an-object shape as [Pipeline.report_to_json], so
   dashboards consume both with one parser.  The unmatched fields only
   appear when the caller supplied sources to correlate against. *)
let ingest_report_json (st : Ingest.stats) db unmatched =
  let n v = Json.Num v in
  let ni v = Json.Num (float_of_int v) in
  let base =
    [
      ("shards_merged", ni st.Ingest.ing_shards);
      ("shards_skipped", ni st.Ingest.ing_skipped);
      ("shards_skewed", ni st.Ingest.ing_skewed);
      ("shards_clamped", ni st.Ingest.ing_clamped);
      ("applied_weight", n st.Ingest.ing_weight);
      ("counters", ni (List.length (Db.entries db)));
      ("total_count", n (Db.total db));
    ]
  in
  let extra =
    match unmatched with
    | None -> []
    | Some (cst : Cmo_profile.Correlate.stats) ->
      [
        ("matched_count", n cst.Cmo_profile.Correlate.total_count);
        ("unmatched_keys", ni cst.Cmo_profile.Correlate.unmatched_keys);
        ("unmatched_weight", n cst.Cmo_profile.Correlate.unmatched_weight);
      ]
  in
  Json.to_string (Json.Obj (base @ extra))

let profile_ingest_cmd =
  let packs_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PACK"
           ~doc:"Shard packs to ingest (corrupt shards are skipped and \
                 counted, never fatal).")
  in
  let out_arg =
    Arg.(value & opt string "fleet.prof" & info [ "o" ] ~docv:"FILE"
           ~doc:"Merged canonical profile database output path.")
  in
  let against_arg =
    Arg.(value & opt_all file [] & info [ "against" ] ~docv:"SRC"
           ~doc:"Source files to correlate the merged database \
                 against; adds unmatched key/weight accounting to the \
                 JSON report (repeatable).")
  in
  let action packs out policy report_json against =
    guard @@ fun () ->
    let db, st = Ingest.ingest_paths ~policy packs in
    Db.save db out;
    pp_ingest_stats st;
    Printf.printf "wrote %s (%d counters, total count %.0f)\n" out
      (List.length (Db.entries db))
      (Db.total db);
    let unmatched =
      if against = [] then None
      else begin
        let modules =
          Pipeline.frontend (List.map source_of_path against)
        in
        let cst = Cmo_profile.Correlate.annotate db modules in
        Cmo_profile.Correlate.clear modules;
        Printf.printf "against %d modules: %d unmatched keys, weight %.0f\n"
          (List.length modules)
          cst.Cmo_profile.Correlate.unmatched_keys
          cst.Cmo_profile.Correlate.unmatched_weight;
        Some cst
      end
    in
    write_report_json report_json (ingest_report_json st db unmatched)
  in
  let doc = "Merge fleet shard packs into one canonical profile database." in
  Cmd.v (Cmd.info "ingest" ~doc)
    Term.(ret (const action $ packs_arg $ out_arg $ profile_policy_args
               $ report_json_arg $ against_arg))

(* push/pull address one daemon cohort: --cohort, else $CMO_COHORT,
   else the default "fleet" cohort. *)
let cohort_opt_arg =
  Arg.(value & opt (some string) None & info [ "cohort" ] ~docv:"NAME"
         ~doc:"The daemon cohort to push to or pull from.  Defaults to \
               \\$CMO_COHORT when set, else $(b,fleet).")

let resolve_cohort = function
  | Some name -> name
  | None -> Option.value Options.env.Options.env_cohort ~default:Cohort.default

(* [profile push] and [profile cohort ingest] are one action: every
   decodable shard of the packs joins the cohort in one request. *)
let ingest_packs with_client cohort packs =
  let shards, damaged =
    List.fold_left
      (fun (acc, d) pack ->
        let ss, d' = Ingest.read_pack pack in
        (acc @ ss, d + d'))
      ([], 0) packs
  in
  let stored =
    with_client (fun c ->
        Client.cohort_ingest c ~cohort (List.map Ingest.encode_shard shards))
  in
  Printf.printf
    "cohort %s holds %d shards (%d ingested, %d damaged skipped on read)\n"
    cohort stored (List.length shards) damaged

let profile_push_cmd =
  let packs_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PACK"
           ~doc:"Shard packs whose shards are uploaded to the daemon.")
  in
  let action packs socket cohort =
    guard @@ fun () ->
    ingest_packs
      (Client.with_connect ~socket:(resolve_socket socket))
      (resolve_cohort cohort) packs
  in
  let doc = "Upload fleet shards to a cmocd cohort." in
  Cmd.v (Cmd.info "push" ~doc)
    Term.(ret (const action $ packs_arg $ socket_arg $ cohort_opt_arg))

let profile_pull_cmd =
  let out_arg =
    Arg.(value & opt string "fleet.prof" & info [ "o" ] ~docv:"FILE"
           ~doc:"Where to write the daemon's merged canonical database.")
  in
  let action out socket fp cohort =
    guard @@ fun () ->
    let data, shards, skipped =
      Client.with_connect ~socket:(resolve_socket socket) (fun c ->
          Client.cohort_pull c ~cohort:(resolve_cohort cohort) ~current_fp:fp)
    in
    (* The daemon's bytes are already canonical; write them verbatim
       so pull-vs-local-ingest byte comparisons are meaningful. *)
    Fsio.atomic_write out data;
    Printf.printf "wrote %s (%d shards merged, %d skipped)\n" out shards
      skipped
  in
  let doc = "Fetch a daemon cohort's merged fleet profile." in
  Cmd.v (Cmd.info "pull" ~doc)
    Term.(ret (const action $ out_arg $ socket_arg $ fp_arg $ cohort_opt_arg))

(* ---- profile ab: the A/B arm generator ---- *)

let profile_ab_cmd =
  let prof_arg =
    Arg.(required & opt (some file) None & info [ "profile" ] ~docv:"FILE"
           ~doc:"Oracle profile database ($(b,cmoc train) output) both \
                 arms sample from.")
  in
  let divergence_arg =
    Arg.(value & opt float 0.5 & info [ "divergence" ] ~docv:"F"
           ~doc:"Planted divergence of arm B, in [0,1]: 0 makes the \
                 arms byte-identical, 1 swaps the hottest and coldest \
                 keys outright.")
  in
  let users_arg =
    Arg.(value & opt int 40 & info [ "users" ] ~docv:"N"
           ~doc:"Simulated users per arm.")
  in
  let rate_arg =
    Arg.(value & opt float 1.0 & info [ "sample-rate" ] ~docv:"R"
           ~doc:"Per-event recording probability, in (0,1].")
  in
  let noise_arg =
    Arg.(value & opt float 0.1 & info [ "noise" ] ~docv:"X"
           ~doc:"Relative per-key jitter.")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N"
           ~doc:"Fleet seed (both arms share it, so divergence 0 \
                 yields byte-identical arms).")
  in
  let a_arg =
    Arg.(value & opt string "armA.shards" & info [ "a" ] ~docv:"FILE"
           ~doc:"Arm A shard pack output (replaced).")
  in
  let b_arg =
    Arg.(value & opt string "armB.shards" & info [ "b" ] ~docv:"FILE"
           ~doc:"Arm B shard pack output (replaced).")
  in
  let action paths prof divergence users rate noise seed a b =
    guard @@ fun () ->
    let oracle = Db.load prof in
    let current_fp = fingerprint_of_paths paths in
    let cfg =
      {
        Cmo_workload.Fleet.users;
        sample_rate = rate;
        stale_fraction = 0.0;
        noise;
        fleet_seed = seed;
      }
    in
    let arm_a, arm_b =
      Cmo_workload.Fleet.ab_arms cfg ~oracle ~current_fp ~divergence
    in
    Ingest.write_pack a arm_a;
    Ingest.write_pack b arm_b;
    Printf.printf
      "wrote %s and %s (%d users per arm, divergence %.2f, rate %g)\n" a b
      users divergence rate
  in
  let doc =
    "Generate the two shard packs of a canary experiment: arm A \
     samples the oracle, arm B a divergence-diverted copy."
  in
  Cmd.v (Cmd.info "ab" ~doc)
    Term.(ret (const action $ sources_arg $ prof_arg $ divergence_arg
               $ users_arg $ rate_arg $ noise_arg $ seed_arg $ a_arg $ b_arg))

(* ---- profile cohort: the named registry ---- *)

let state_dir_arg =
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Operate on the cohort registry under this cmocd state \
               directory without a daemon (offline mode).")

(* A daemon when a socket is named (flag or $CMO_SOCKET), the offline
   registry when a state dir is; naming both is ambiguous and refused.
   Either way the same handler answers. *)
let with_registry socket state_dir f =
  match (socket, state_dir) with
  | Some _, Some _ ->
    raise (Pipeline.Compile_error "--socket and --state-dir are exclusive")
  | None, Some state_dir ->
    let c = Client.offline ~state_dir in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  | None, None when Options.env.Options.env_socket = None ->
    raise
      (Pipeline.Compile_error
         "cohort operations need --socket/$CMO_SOCKET or --state-dir")
  | _, None -> Client.with_connect ~socket:(resolve_socket socket) f

let cohort_name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"COHORT"
         ~doc:"Cohort name ([A-Za-z0-9_.-], not starting with . or -).")

let cohort_create_cmd =
  let action name socket state_dir =
    guard @@ fun () ->
    ignore
      (with_registry socket state_dir (fun c ->
           Client.cohort_ingest c ~cohort:name []));
    Printf.printf "created cohort %s\n" name
  in
  let doc = "Create an empty named cohort (idempotent)." in
  Cmd.v (Cmd.info "create" ~doc)
    Term.(ret (const action $ cohort_name_arg $ socket_arg $ state_dir_arg))

let cohort_ingest_cmd =
  let packs_arg =
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"PACK"
           ~doc:"Shard packs whose shards join the cohort.")
  in
  let action name packs socket state_dir =
    guard @@ fun () -> ingest_packs (with_registry socket state_dir) name packs
  in
  let doc = "Append fleet shards to a named cohort (created as needed)." in
  Cmd.v (Cmd.info "ingest" ~doc)
    Term.(ret (const action $ cohort_name_arg $ packs_arg $ socket_arg
               $ state_dir_arg))

let cohort_list_cmd =
  let action socket state_dir =
    guard @@ fun () ->
    match with_registry socket state_dir Client.cohort_list with
    | [] -> Printf.printf "no cohorts\n"
    | infos ->
      List.iter
        (fun (i : Cohort.info) ->
          Printf.printf "%-24s %5d shards %4d damaged %8d bytes\n"
            i.Cohort.ci_name i.ci_shards i.ci_damaged i.ci_bytes)
        infos
  in
  let doc = "List the registry's named cohorts." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(ret (const action $ socket_arg $ state_dir_arg))

let cohort_diff_cmd =
  let base_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE"
           ~doc:"Base (stable) cohort.")
  in
  let canary_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANARY"
           ~doc:"Canary cohort.")
  in
  let diff_sources_arg =
    Arg.(non_empty & pos_right 1 file [] & info [] ~docv:"SOURCES"
           ~doc:"The program whose hot-set selection is compared.")
  in
  let percent_arg =
    Arg.(value & opt float 20.0 & info [ "percent" ] ~docv:"P"
           ~doc:"Hot-set selection percentage (as in PBO selectivity).")
  in
  let threshold_arg =
    Arg.(value & opt (some float) None & info [ "threshold" ] ~docv:"T"
           ~doc:"Would-flip share threshold in (0,1]; defaults to \
                 \\$CMO_FLIP_THRESHOLD, else 0.02.")
  in
  let fail_on_flip_flag =
    Arg.(value & flag & info [ "fail-on-flip" ]
           ~doc:"Exit non-zero when the verdict is FLIP — the alerting \
                 hook for canary pipelines.")
  in
  let action base canary paths socket state_dir percent threshold report_json
      fail_on_flip =
    guard @@ fun () ->
    let threshold =
      match threshold with
      | Some t -> t
      | None -> (
        match Options.env.Options.env_flip_threshold with
        | Some t -> t
        | None -> Cohort.Diff.default_threshold)
    in
    let sources = List.map source_of_path paths in
    let report =
      with_registry socket state_dir (fun c ->
          Client.cohort_diff c ~base ~canary ~percent ~threshold sources)
    in
    Format.printf "%a@?" Cohort.Diff.pp_report report;
    write_report_json report_json
      (Json.to_string (Cohort.Diff.report_to_json report));
    if fail_on_flip && report.Cohort.Diff.r_verdict = Flip then
      raise (Pipeline.Compile_error "canary would flip the hot set")
  in
  let doc =
    "Compare the module/function hot sets two cohorts induce on a \
     program and report the would-flip verdict."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(ret (const action $ base_arg $ canary_arg $ diff_sources_arg
               $ socket_arg $ state_dir_arg $ percent_arg $ threshold_arg
               $ report_json_arg $ fail_on_flip_flag))

let cohort_gc_cmd =
  let drop_arg =
    Arg.(value & opt_all string [] & info [ "drop" ] ~docv:"NAME"
           ~doc:"Remove this cohort entirely (repeatable).")
  in
  let gc_state_dir_arg =
    Arg.(value & opt string ".cmocd" & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"The cmocd state directory whose registry is swept \
                 (run offline; stop the daemon first).")
  in
  let action state_dir drops =
    guard @@ fun () ->
    let st =
      Cohort.gc ~drop:drops (Cmo_server.Server.registry ~state_dir)
    in
    Printf.printf
      "gc: %d cohorts kept (%d shards), %d removed, %d damaged frames \
       compacted, %d bytes reclaimed\n"
      st.Cohort.gc_cohorts st.gc_kept_shards st.gc_removed
      st.gc_damage_dropped st.gc_bytes_reclaimed
  in
  let doc =
    "Sweep the cohort registry offline: drop named cohorts and compact \
     damaged packs."
  in
  Cmd.v (Cmd.info "gc" ~doc)
    Term.(ret (const action $ gc_state_dir_arg $ drop_arg))

let profile_cohort_cmd =
  let doc =
    "Named profile cohorts: create, ingest, list, selection-diff, gc."
  in
  Cmd.group (Cmd.info "cohort" ~doc)
    [ cohort_create_cmd; cohort_ingest_cmd; cohort_list_cmd; cohort_diff_cmd;
      cohort_gc_cmd ]

let profile_cmd =
  let doc =
    "Fleet profile operations: fingerprint, shard, ingest, push, pull, \
     ab, cohort."
  in
  Cmd.group (Cmd.info "profile" ~doc)
    [ profile_fingerprint_cmd; profile_shard_cmd; profile_ingest_cmd;
      profile_push_cmd; profile_pull_cmd; profile_ab_cmd; profile_cohort_cmd ]

(* ---- build ---- *)

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Artifact cache directory (default: the workspace's DIR/.cmo-cache).")

let cache_capacity_arg =
  Arg.(value & opt (some int) None & info [ "cache-capacity" ] ~docv:"MB"
         ~doc:"Artifact cache capacity in MiB (default 256).")

let build_cmd =
  let dir_arg =
    Arg.(value & opt dir "." & info [ "dir" ] ~docv:"DIR"
           ~doc:"Workspace directory for object files and the artifact cache.")
  in
  let no_cache_flag =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the link-time artifact cache.")
  in
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Execute the linked image on the VM.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the compilation report.")
  in
  let action (front : front) paths input dir no_cache cache_dir
      cache_capacity run_it verbose report_json =
    guard @@ fun () ->
    install_fault_plan front.fault;
    let sources = List.map source_of_path paths in
    let ws =
      Buildsys.create ~cache:(not no_cache) ?cache_dir
        ?cache_capacity:(Option.map (fun mb -> mb * 1024 * 1024) cache_capacity)
        ~dir ()
    in
    (* With --dist and a socket, a running cmocd doubles as a remote
       artifact cache shared across checkouts; an unreachable daemon
       degrades to a purely local build. *)
    let client =
      match front.socket with
      | Some s when front.options.Options.dist -> (
        match Client.connect ~socket:s with
        | c -> Some c
        | exception Sys_error m ->
          Logs.warn (fun f -> f "%s; building without the remote cache" m);
          None)
      | Some _ | None -> None
    in
    Fun.protect ~finally:(fun () -> Option.iter Client.close client)
    @@ fun () ->
    let remote = Option.map Client.remote client in
    let outcome =
      (* ^C mid-build must not leave half-written [.tmp] artifacts
         around the workspace: Break unwinds through the build's
         finalizers (closing the store), then the sweep below picks
         up whatever an interrupted atomic_write abandoned. *)
      let previous =
        Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> raise Sys.Break))
      in
      match
        Buildsys.build ?profile:(Lazy.force front.profile) ?remote ws
          front.options sources
      with
      | outcome ->
        Sys.set_signal Sys.sigint previous;
        outcome
      | exception Sys.Break ->
        List.iter
          (fun d ->
            if Sys.file_exists d && Sys.is_directory d then
              Array.iter
                (fun f ->
                  if Filename.check_suffix f ".tmp" then
                    try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
                (Sys.readdir d))
          [ dir; Buildsys.cache_dir ws ];
        prerr_endline "cmoc: interrupted; temp artifacts cleaned";
        exit 130
    in
    write_report_json report_json
      (Json.to_string
         (Pipeline.report_to_json outcome.Buildsys.build.Pipeline.report));
    Printf.printf "frontend: %d recompiled, %d reused\n"
      (List.length outcome.Buildsys.recompiled)
      (List.length outcome.Buildsys.reused);
    let report = outcome.Buildsys.build.Pipeline.report in
    (match report.Pipeline.cache with
    | Some c ->
      Printf.printf
        "link cache: %d hits, %d misses; %d cmo modules cached, %d re-optimized\n"
        c.Pipeline.hits c.Pipeline.misses
        (List.length c.Pipeline.cmo_cached)
        (List.length c.Pipeline.cmo_reoptimized);
      if c.Pipeline.remote_hits + c.Pipeline.remote_misses > 0 then
        Printf.printf "remote cache: %d hits, %d misses\n"
          c.Pipeline.remote_hits c.Pipeline.remote_misses
    | None -> ());
    if report.Pipeline.workers_used > 1 then
      Printf.printf "parallel: %d workers, %.2fx speedup (cpu/wall)\n"
        report.Pipeline.workers_used (Pipeline.par_speedup report);
    if verbose then Format.printf "%a@." Pipeline.pp_report report;
    if run_it then begin
      let o = Pipeline.run ~input:(parse_input input) outcome.Buildsys.build in
      List.iter (Printf.printf "%Ld\n") o.Vm.output;
      Printf.printf "exit: %Ld  (%d cycles)\n" o.Vm.ret o.Vm.cycles
    end
    else
      Printf.printf "linked %d instructions\n"
        (Array.length outcome.Buildsys.build.Pipeline.image.Cmo_link.Image.code);
    report_fault_plan ()
  in
  let doc =
    "Incremental build over on-disk object files, with cached link-time \
     cross-module optimization."
  in
  Cmd.v (Cmd.info "build" ~doc)
    Term.(ret (const action $ front_term $ sources_arg $ input_arg $ dir_arg
               $ no_cache_flag $ cache_dir_arg $ cache_capacity_arg $ run_flag
               $ verbose $ report_json_arg))

(* ---- cache ---- *)

let cache_cmd =
  let module Store = Cmo_cache.Store in
  let what_arg =
    Arg.(required
         & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
         & info [] ~docv:"ACTION"
             ~doc:"$(b,stats) prints hit/miss/eviction counters and sizes; \
                   $(b,clear) drops every artifact.")
  in
  let dir_of = function Some d -> d | None -> ".cmo-cache" in
  let action what cache_dir capacity =
    guard @@ fun () ->
    let dir = dir_of cache_dir in
    match what with
    | `Stats ->
      if Sys.file_exists dir then begin
        let store =
          Store.open_
            ?capacity:(Option.map (fun mb -> mb * 1024 * 1024) capacity)
            ~dir ()
        in
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () ->
            Format.printf "%s:@.%a@." dir Store.pp_stats (Store.stats store))
      end
      else Printf.printf "no cache at %s\n" dir
    | `Clear ->
      if Sys.file_exists dir then begin
        let store = Store.open_ ~dir () in
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () -> Store.clear store);
        Printf.printf "cleared %s\n" dir
      end
      else Printf.printf "no cache at %s\n" dir
  in
  let doc = "Inspect or clear a link-time artifact cache." in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(ret (const action $ what_arg $ cache_dir_arg $ cache_capacity_arg))

(* ---- bench-info ---- *)

let bench_info_cmd =
  let action () =
    guard @@ fun () ->
    Printf.printf "%-10s %8s %6s %6s %7s\n" "name" "modules" "hot" "weight" "lines";
    List.iter
      (fun (name, cfg) ->
        Printf.printf "%-10s %8d %6d %5d%% %7d\n" name cfg.Genprog.modules
          cfg.Genprog.hot_modules cfg.Genprog.hot_weight
          (Genprog.source_lines (Genprog.generate cfg)))
      (Suite.all @ [ ("storm", Suite.storm) ]);
    Printf.printf
      "(storm is the build-server load personality; not part of the figure suite)\n"
  in
  let doc = "List the benchmark personalities." in
  Cmd.v (Cmd.info "bench-info" ~doc) Term.(ret (const action $ const ()))

let main_cmd =
  let doc = "scalable cross-module optimization toolchain (PLDI 1998 reproduction)" in
  Cmd.group
    (Cmd.info "cmoc" ~version:("1.0 (build " ^ Cmo_buildid.id ^ ")") ~doc)
    [ compile_cmd; build_cmd; cache_cmd; train_cmd; dump_cmd; gen_cmd;
      assemble_cmd; link_cmd; isolate_cmd; profile_show_cmd; profile_cmd;
      bench_info_cmd ]

(* Usage errors keep cmdliner's status 124; a failed action is 1. *)
let () = exit (Cmd.eval ~term_err:1 main_cmd)
