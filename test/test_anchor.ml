(* Codegen anchor: one digest per build of a fixed set of programs at
   a fixed set of option sets, over the linked image's code and its
   linker map.  The determinism matrices compare builds of one source
   tree against each other; this suite compares them against the
   digests recorded when the table below was last written, so a
   refactor that must not change generated code is held to the bytes
   of the commit before it.

   A change that alters the optimizer or code generator on purpose
   updates [expected] (the failure message prints the whole new
   table, ready to paste) and says so in CHANGES.md. *)

module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Image = Cmo_link.Image
module Mach = Cmo_llo.Mach
module Corpus = Cmo_campaign.Corpus
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite

let option_sets =
  [
    ("O1", Options.o1);
    ("O2", Options.o2);
    ("O4", Options.o4);
    ("O4+P", Options.o4_pbo);
  ]

(* One small program per workload personality the benchmark builds:
   li (the distributed shards), mcad1 (the cold CMO+PBO builds) and
   storm (the daemon edit storms). *)
let genprog_programs =
  let small name cfg = (name, { cfg with Genprog.main_iters = 200 }) in
  [
    small "genprog-li" (Suite.find "li");
    small "genprog-mcad1" (Genprog.scale (Suite.find "mcad1") 0.02);
    small "genprog-storm" Suite.storm;
  ]

let programs () =
  Corpus.load_dir "corpus"
  |> List.map (fun (name, program) -> (name, program, [| 7L; 3L; 11L; 2L |]))
  |> fun corpus ->
  corpus
  @ List.map
      (fun (name, cfg) ->
        (name, Genprog.generate cfg, Genprog.training_input cfg))
      genprog_programs

let digest_of_build (build : Pipeline.build) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Array.iter
    (fun i -> Format.fprintf ppf "%a@\n" Mach.pp_instr i)
    build.Pipeline.image.Image.code;
  Format.fprintf ppf "--@\n%a@." Image.pp_map build.Pipeline.image;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let actual () =
  List.concat_map
    (fun (name, program, input) ->
      let sources =
        List.map (fun (name, text) -> { Pipeline.name; text }) program
      in
      List.map
        (fun (label, options) ->
          let profile =
            if options.Options.pbo then
              Some (Pipeline.train ~inputs:[ input ] sources)
            else None
          in
          ( name ^ " " ^ label,
            digest_of_build (Pipeline.compile ?profile options sources) ))
        option_sets)
    (programs ())

let expected =
  [
    ("cross_module_globals.mc O1", "c777e289f47fd9991eedaa9d13b1b623");
    ("cross_module_globals.mc O2", "76fa8fd4c785df0f73b57d18e0e01e47");
    ("cross_module_globals.mc O4", "fef1e85797b944d039871aa8ede5f1de");
    ("cross_module_globals.mc O4+P", "fef1e85797b944d039871aa8ede5f1de");
    ("div_rem_edges.mc O1", "250eb4abb32dee8a52875d906760f25a");
    ("div_rem_edges.mc O2", "3cd35018acab9b6f4c9c180c2d0d962e");
    ("div_rem_edges.mc O4", "3cd35018acab9b6f4c9c180c2d0d962e");
    ("div_rem_edges.mc O4+P", "3cd35018acab9b6f4c9c180c2d0d962e");
    ("loop_break_continue.mc O1", "eda8db8b3cc3e5254763a38ae8dd1435");
    ("loop_break_continue.mc O2", "d92a5580928b2f57df11387170184831");
    ("loop_break_continue.mc O4", "d92a5580928b2f57df11387170184831");
    ("loop_break_continue.mc O4+P", "97cc44cbf681f9ba2b3993a935691f20");
    ("shift_edges.mc O1", "bee6d6626c5f44c564f920e718fd8d74");
    ("shift_edges.mc O2", "f5ba881ee083fb7c9dd72fdc2d638c77");
    ("shift_edges.mc O4", "f5ba881ee083fb7c9dd72fdc2d638c77");
    ("shift_edges.mc O4+P", "f5ba881ee083fb7c9dd72fdc2d638c77");
    ("short_circuit_effects.mc O1", "f7e107c05deeedc33faf75151b598649");
    ("short_circuit_effects.mc O2", "960fc85723179f911331f2c114fda28a");
    ("short_circuit_effects.mc O4", "69d2a43f1cdb5457d8e6ed720c625b7c");
    ("short_circuit_effects.mc O4+P", "0250300339b73d194d0b3e5a9b1cbcd4");
    ("genprog-li O1", "a4307040247d0359a0251d9def7e2317");
    ("genprog-li O2", "80f943ae14d945354109e21d374e3986");
    ("genprog-li O4", "800b17811b929fb72a0cecaaf68ece12");
    ("genprog-li O4+P", "abda7f6d25253ad76812055e3eb906f5");
    ("genprog-mcad1 O1", "daaeb38133086f053253a0898d80b9ec");
    ("genprog-mcad1 O2", "856cfd1544293cc7ff2db253489cef3f");
    ("genprog-mcad1 O4", "958248073b862c7be5f168260e95e106");
    ("genprog-mcad1 O4+P", "322ac67be481e7c8a6412bdd6d2805a9");
    ("genprog-storm O1", "0cb74b5a552efc4f0f0e7e4418fb8b28");
    ("genprog-storm O2", "41bdab758047a4c4e3342c94f5e8da31");
    ("genprog-storm O4", "57de206e553846b424489f4ac16c82ae");
    ("genprog-storm O4+P", "88051f5c48b6eebb3990b99163fae1de");
  ]

let test_anchor () =
  let actual = actual () in
  if actual <> expected then begin
    print_endline "codegen anchor digests changed; the new table is:";
    print_endline "let expected =\n  [";
    List.iter (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d) actual;
    print_endline "  ]";
    List.iter
      (fun (k, d) ->
        match List.assoc_opt k expected with
        | Some d' when d' = d -> ()
        | Some _ -> Printf.printf "changed: %s\n" k
        | None -> Printf.printf "new: %s\n" k)
      actual
  end;
  Alcotest.(check (list (pair string string))) "anchor digests" expected actual

let suite =
  [ Alcotest.test_case "codegen digests equal the recorded ones" `Quick test_anchor ]
