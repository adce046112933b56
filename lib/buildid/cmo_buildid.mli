(** The build identity: 32 lowercase hex digits, fixed when dune
    builds the tools.  It is the MD5 of the OCaml version and of the
    path and content of every [.ml]/[.mli] of the libraries
    [cmoc-worker] links plus [bin/cmoc_worker.ml], so every tool
    built from one tree embeds the same string and a change to any
    worker-side source changes it.  A worker reports it in its
    [Hello]; a parent refuses a worker whose identity differs from
    its own. *)

val id : string
