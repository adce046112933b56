(** The build identity: 32 lowercase hex digits, fixed when dune
    builds the tools.  It is the MD5 of the OCaml version and of the
    path and content of every [.ml]/[.mli] of the libraries
    [cmoc-worker] links, of [lib/server] (the [cmocd] protocol) and of
    [bin/cmoc_worker.ml], so every tool built from one tree embeds the
    same string and a change to either wire's sources changes it.
    Every greeting reports it ({!Cmo_driver.Greeting}): a parent
    refuses a worker, and [cmocd] a client, whose identity differs
    from the one it expects. *)

val id : string
