let is_barrier = function
  | Mach.Call_sym _ | Mach.Call_abs _ | Mach.Sys _ | Mach.Cnt _ | Mach.Adjsp _
  | Mach.B _ | Mach.Bz _ | Mach.Bnz _ | Mach.Ret | Mach.Halt -> true
  | Mach.Li _ | Mach.Mv _ | Mach.Op _ | Mach.Opi _ | Mach.Un _ | Mach.Ld _
  | Mach.St _ | Mach.Lga _ -> false

let is_load = function Mach.Ld _ -> true | _ -> false

(* The scratch state of [run], sized for a routine's longest block
   ([cap]: no segment is longer) and for its registers.  Arrays named
   by instruction are indexed by position in the segment.

   A segment instruction reads at most two registers and writes at
   most one ([-1]: none): [use0], [use1], [def].

   Per register (every register, physical or virtual, is below
   [next_vreg]): [writer] holds the segment index of its last writer,
   [reader] the newest of the reads since that write.  Read [u] of
   instruction [j] is node [2j + u]; [next_reader] links each node to
   the previous read of the same register.  A segment resets the
   registers it touched, so both are all [-1] between routines.

   [prev_load] links the loads since the last store, newest first.

   Dependence edges are per-source lists threaded through
   [edge_dst]/[edge_next].  Per instruction a segment adds at most two
   edges from its sources' writers, one from its destination's writer
   and one from the last store; the edges from readers and from loads
   number at most two and one per instruction over the segment: seven
   in all.  [npreds] counts unscheduled predecessors ([-1] once
   scheduled). *)
type workspace = {
  cap : int;
  instrs : Mach.instr array;
  out : Mach.instr array;
  use0 : int array;
  use1 : int array;
  def : int array;
  next_reader : int array;
  prev_load : int array;
  succ_head : int array;
  edge_dst : int array;
  edge_next : int array;
  npreds : int array;
  last_src : int array;
  height : int array;
  writer : int array;
  reader : int array;
}

let workspace ~cap ~nregs =
  {
    cap;
    instrs = Array.make cap Mach.Halt;
    out = Array.make cap Mach.Halt;
    use0 = Array.make cap (-1);
    use1 = Array.make cap (-1);
    def = Array.make cap (-1);
    next_reader = Array.make (2 * cap) (-1);
    prev_load = Array.make cap (-1);
    succ_head = Array.make cap (-1);
    edge_dst = Array.make (7 * cap) 0;
    edge_next = Array.make (7 * cap) 0;
    npreds = Array.make cap 0;
    last_src = Array.make cap (-1);
    height = Array.make cap 0;
    writer = Array.make nregs (-1);
    reader = Array.make nregs (-1);
  }

(* One spare workspace, taken and put back with [Atomic.exchange]:
   routines scheduled one after another reuse it, and one that finds
   none (another domain holds it) or finds it too small makes its own,
   which then becomes the spare.  A run that raises does not put its
   workspace back. *)
let spare : workspace option Atomic.t = Atomic.make None

let take ~cap ~nregs =
  match Atomic.exchange spare None with
  | Some ws when ws.cap >= cap && Array.length ws.writer >= nregs -> ws
  | Some ws -> workspace ~cap:(max cap ws.cap) ~nregs:(max nregs (Array.length ws.writer))
  | None -> workspace ~cap ~nregs

let run (vc : Isel.vcode) =
  let cap =
    List.fold_left (fun m (b : Isel.vblock) -> max m (List.length b.Isel.body)) 0 vc.Isel.vblocks
  in
  let ws = take ~cap ~nregs:vc.Isel.next_vreg in
  let { instrs; out; use0; use1; def; next_reader; prev_load; succ_head; edge_dst; edge_next;
        npreds; last_src; height; writer; reader; _ } =
    ws
  in
  let nedges = ref 0 in
  (* Dependence edges i -> j (i before j), built in one pass: j
     depends on the last writer of each register it reads or writes,
     on every reader since that write of a register it writes, on the
     last store, and — for a store — on every load since that store.
     Each is one of the pairwise RAW/WAR/WAW or memory-order pairs,
     and every pair the pairwise test would add is implied by a chain
     of these, so critical-path heights and the ready set are the
     same.  [last_src.(i) = j] marks an edge i -> j already added. *)
  let edge i j =
    if i >= 0 && last_src.(i) <> j then begin
      last_src.(i) <- j;
      edge_dst.(!nedges) <- j;
      edge_next.(!nedges) <- succ_head.(i);
      succ_head.(i) <- !nedges;
      incr nedges;
      npreds.(j) <- npreds.(j) + 1
    end
  in
  let cur = ref 0 in
  let note_use r = if use0.(!cur) < 0 then use0.(!cur) <- r else use1.(!cur) <- r in
  let note_def r = def.(!cur) <- r in
  let add_reader r node =
    if r >= 0 then begin
      next_reader.(node) <- reader.(r);
      reader.(r) <- node
    end
  in
  let reset r =
    if r >= 0 then begin
      writer.(r) <- -1;
      reader.(r) <- -1
    end
  in
  (* Schedule the barrier-free segment [instrs.(base .. base+n-1)]
     into the same positions of [out]; returns how many instructions
     changed relative position. *)
  let schedule_segment base n =
    if n <= 2 then begin
      Array.blit instrs base out base n;
      0
    end
    else begin
      nedges := 0;
      let last_store = ref (-1) and last_load = ref (-1) in
      for j = 0 to n - 1 do
        let i = instrs.(base + j) in
        succ_head.(j) <- -1;
        npreds.(j) <- 0;
        last_src.(j) <- -1;
        use0.(j) <- -1;
        use1.(j) <- -1;
        def.(j) <- -1;
        cur := j;
        Mach.iter_uses note_use i;
        Mach.iter_defs note_def i;
        let u0 = use0.(j) and u1 = use1.(j) and d = def.(j) in
        if u0 >= 0 then edge writer.(u0) j;
        if u1 >= 0 then edge writer.(u1) j;
        if d >= 0 then begin
          edge writer.(d) j;
          let node = ref reader.(d) in
          while !node >= 0 do
            edge (!node / 2) j;
            node := next_reader.(!node)
          done
        end;
        add_reader u0 (2 * j);
        add_reader u1 ((2 * j) + 1);
        if d >= 0 then begin
          writer.(d) <- j;
          reader.(d) <- -1
        end;
        match i with
        | Mach.Ld _ ->
          edge !last_store j;
          prev_load.(j) <- !last_load;
          last_load := j
        | Mach.St _ ->
          edge !last_store j;
          let l = ref !last_load in
          while !l >= 0 do
            edge !l j;
            l := prev_load.(!l)
          done;
          last_store := j;
          last_load := -1
        | _ -> ()
      done;
      for j = 0 to n - 1 do
        reset use0.(j);
        reset use1.(j);
        reset def.(j)
      done;
      (* Critical-path height: loads weigh extra (their consumers wait). *)
      for i = n - 1 downto 0 do
        let best = ref 0 and e = ref succ_head.(i) in
        while !e >= 0 do
          if height.(edge_dst.(!e)) > !best then best := height.(edge_dst.(!e));
          e := edge_next.(!e)
        done;
        height.(i) <- (if is_load instrs.(base + i) then 2 else 1) + !best
      done;
      (* Greedy list scheduling: each step takes a ready instruction
         (all predecessors scheduled), preferring one that does not
         read the register the last scheduled load wrote, then the
         higher critical path, then original order. *)
      let last_load_dst = ref (-1) and moved = ref 0 and next_orig = ref 0 in
      for k = 0 to n - 1 do
        (* The first highest of the ready instructions that do not
           stall, and of those that do. *)
        let pick = ref (-1) and stalling = ref (-1) in
        let lld = !last_load_dst in
        for i = 0 to n - 1 do
          if npreds.(i) = 0 then
            if lld >= 0 && (use0.(i) = lld || use1.(i) = lld) then begin
              if !stalling < 0 || height.(i) > height.(!stalling) then stalling := i
            end
            else if !pick < 0 || height.(i) > height.(!pick) then pick := i
        done;
        if !pick < 0 then pick := !stalling;
        let pick = !pick in
        npreds.(pick) <- -1;
        let e = ref succ_head.(pick) in
        while !e >= 0 do
          npreds.(edge_dst.(!e)) <- npreds.(edge_dst.(!e)) - 1;
          e := edge_next.(!e)
        done;
        out.(base + k) <- instrs.(base + pick);
        last_load_dst := (match instrs.(base + pick) with Mach.Ld (d, _, _) -> d | _ -> -1);
        if pick <> !next_orig then incr moved;
        (* Track the next original index among unscheduled for the
           moved metric. *)
        while !next_orig < n && npreds.(!next_orig) < 0 do
          incr next_orig
        done
      done;
      !moved
    end
  in
  let moved = ref 0 in
  List.iter
    (fun (b : Isel.vblock) ->
      (* Split at barriers; schedule each pure segment. *)
      let len = ref 0 and start = ref 0 and block_moved = ref 0 in
      List.iter
        (fun i ->
          let k = !len in
          instrs.(k) <- i;
          incr len;
          if is_barrier i then begin
            block_moved := !block_moved + schedule_segment !start (k - !start);
            out.(k) <- i;
            start := k + 1
          end)
        b.Isel.body;
      block_moved := !block_moved + schedule_segment !start (!len - !start);
      (* A block where nothing moved keeps its list. *)
      if !block_moved > 0 then begin
        let body = ref [] in
        for k = !len - 1 downto 0 do
          body := out.(k) :: !body
        done;
        b.Isel.body <- !body
      end;
      moved := !moved + !block_moved)
    vc.Isel.vblocks;
  ignore (Atomic.exchange spare (Some ws));
  !moved
