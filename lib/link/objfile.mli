(** Object files.

    The unit of the build system and the carrier of all persistent
    compiler state except profiles (paper section 6.1: "our system
    works with existing processes by maintaining all persistent
    information (save for profile data) in object files").

    An object file holds either:
    - a {b code} payload: machine code per routine plus the module's
      global definitions — a conventionally compiled module; or
    - an {b IL} payload: the frontend's intermediate language — a
      module compiled in CMO mode (+O4), which the frontends "dump
      directly to object files that correspond to the source modules"
      and the linker later routes through HLO (paper section 3);
      also written under +P, whose routine clustering reads the IL.

    The IL bytes are exactly the {!Cmo_il.Ilcodec} relocatable form —
    the same representation the NAIM repository uses. *)

module Mach := Cmo_llo.Mach


type payload =
  | Code of Mach.func_code list
  | Il of Cmo_il.Ilmod.t

type t = {
  module_name : string;
  globals : Cmo_il.Ilmod.global list;
      (** Also present inside an [Il] payload; duplicated here so the
          linker can allocate data without decoding payloads. *)
  payload : payload;
  source_digest : string;
      (** The build system's up-to-date key (the source's digest; for
          a code object also its code-changing options); empty for
          objects built in memory. *)
}

val of_code :
  module_name:string ->
  globals:Cmo_il.Ilmod.global list ->
  source_digest:string ->
  Mach.func_code list ->
  t

val of_il : source_digest:string -> Cmo_il.Ilmod.t -> t

val is_il : t -> bool

val encode : t -> string
val decode : string -> t
(** @raise Cmo_support.Codec.Reader.Corrupt on malformed input. *)

val save : t -> string -> unit
val load : string -> t
(** @raise Sys_error / [Corrupt] as appropriate. *)

val func_names : t -> string list
(** Functions defined by this object, in order. *)
