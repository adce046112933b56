(* gen_build_id OCAML_VERSION FILE...: print the Cmo_buildid module,
   whose [id] is the MD5 of the OCaml version and of each file's path
   and content digest, files in sorted path order so the identity does
   not depend on the order dune lists them in. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | version :: (_ :: _ as files) ->
    let entry path =
      let text = In_channel.with_open_bin path In_channel.input_all in
      path ^ "\000" ^ Digest.to_hex (Digest.string text)
    in
    let parts = version :: List.map entry (List.sort compare files) in
    let id = Digest.to_hex (Digest.string (String.concat "\n" parts)) in
    Printf.printf "let id = %S\n" id
  | _ ->
    prerr_endline "usage: gen_build_id OCAML_VERSION FILE...";
    exit 64
