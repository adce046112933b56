(* One int per 63 elements: OCaml 5 is 64-bit only, so every int has
   63 usable bits and land/lor/lsl work on all of them. *)
let width = 63

type t = int array

let create n = Array.make ((n + width - 1) / width) 0

let copy = Array.copy

let mem t i =
  let w = i / width in
  i >= 0 && w < Array.length t && t.(w) land (1 lsl (i mod width)) <> 0

let add t i = t.(i / width) <- t.(i / width) lor (1 lsl (i mod width))

let remove t i = t.(i / width) <- t.(i / width) land lnot (1 lsl (i mod width))

let union_into ~into src =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let a = into.(w) in
    let c = a lor src.(w) in
    if c <> a then begin
      into.(w) <- c;
      changed := true
    end
  done;
  !changed

let union_diff_into ~into src ~minus =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let a = into.(w) in
    let c = a lor (src.(w) land lnot minus.(w)) in
    if c <> a then begin
      into.(w) <- c;
      changed := true
    end
  done;
  !changed

let iter f t =
  for w = 0 to Array.length t - 1 do
    let word = ref t.(w) in
    let bit = ref 0 in
    while !word <> 0 do
      if !word land 1 <> 0 then f ((w * width) + !bit);
      word := !word lsr 1;
      incr bit
    done
  done

let elements t =
  let out = ref [] in
  iter (fun i -> out := i :: !out) t;
  List.rev !out
