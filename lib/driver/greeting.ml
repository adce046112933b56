module Codec = Cmo_support.Codec

let wire_version = 2

type t = { wire : int; identity : string }

let own () =
  {
    wire = wire_version;
    identity =
      Option.value Options.env.Options.env_worker_fp ~default:Cmo_buildid.id;
  }

let expected (env : Options.env) =
  Option.value env.Options.env_dist_expect_fp ~default:Cmo_buildid.id

let write w g =
  Codec.Writer.uvarint w g.wire;
  Codec.Writer.string w g.identity

let read r =
  let wire = Codec.Reader.uvarint r in
  let identity = Codec.Reader.string r in
  { wire; identity }

let check ~expect g =
  if g.wire <> wire_version then
    Error
      (Printf.sprintf "wire version %d, this build speaks %d" g.wire
         wire_version)
  else if g.identity <> expect then
    Error (Printf.sprintf "build identity %s, expected %s" g.identity expect)
  else Ok ()
