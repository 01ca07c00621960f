(** Basic-block list scheduler (GCC's sched1 analogue).

    Schedules each block independently — the paper notes GCC's scheduler
    is "limited to basic blocks" — using critical-path-first list
    scheduling over the {!Ddg} graph, with the target machine's
    latencies.  The graph does not depend on the machine, so each block's
    is built once and scheduled for every machine.  The output is a new
    instruction order per block and machine; the timing simulators then
    measure what that order costs. *)

open Rtl

(* The cycles an edge out of a node whose own latency is [lat] makes
   its successor wait. *)
let edge_latency lat l = if l = Ddg.producer then lat else l

(* critical-path priority: longest latency path from node to any sink.
   DDG edges always run forward in block order, so one backward sweep
   sets every successor's priority before its predecessors'. *)
let priorities (g : Ddg.graph) (lat : int array) : int array =
  let n = Array.length g.Ddg.insns in
  let prio = Array.make n 0 in
  let rec longest lj acc = function
    | [] -> acc
    | (succ, l) :: rest ->
        longest lj (Int.max acc (edge_latency lj l + prio.(succ))) rest
  in
  for j = n - 1 downto 0 do
    prio.(j) <- lat.(j) + longest lat.(j) 0 g.Ddg.succs.(j)
  done;
  prio

(* Binary min-heap of ints. *)
type heap = { keys : int array; mutable size : int }

let heap n = { keys = Array.make (Int.max n 1) 0; size = 0 }

let push q x =
  let k = q.keys in
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && x < k.((!i - 1) / 2) do
    k.(!i) <- k.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  k.(!i) <- x

let pop q =
  let k = q.keys in
  let top = k.(0) in
  q.size <- q.size - 1;
  let x = k.(q.size) and n = q.size in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && k.(l + 1) < k.(l) then l + 1 else l in
    if c < n && k.(c) < x then begin
      k.(!i) <- k.(c);
      i := c
    end
    else sifting := false
  done;
  k.(!i) <- x;
  top

(** Schedule one block's instructions, returning them in the new order.

    Cycle by cycle, the ready nodes issue highest priority first (block
    order breaks ties), at most [issue_width] per cycle.  A node whose
    last predecessor issues waits in [pending], ordered by its earliest
    cycle; [pending] is drained into [ready] only at the start of a
    cycle, so a node released in cycle [c] issues no sooner than [c + 1]
    even over a 0-latency edge.  Ready nodes stay in [ready] until they
    issue, and cycles with nothing ready are skipped.  Both heaps hold
    node [j] as one int key, [major * n + j]: the earliest cycle in
    [pending], the priority rank [top - prio.(j)] in [ready].  Edges
    that wait for their producer take its {!Machdesc.latency} on [md]. *)
let schedule_block ~(md : Machdesc.t) (g : Ddg.graph) : insn list =
  let n = Array.length g.Ddg.insns in
  let lat = Array.map (Machdesc.latency md) g.Ddg.insns in
  let prio = priorities g lat in
  let top = Array.fold_left Int.max 0 prio in
  let unscheduled_preds = Array.map List.length g.Ddg.preds in
  (* earliest cycle each node may issue, updated as preds schedule *)
  let earliest = Array.make n 0 in
  let ready = heap n and pending = heap n in
  let ready_key j = ((top - prio.(j)) * n) + j in
  for j = 0 to n - 1 do
    if unscheduled_preds.(j) = 0 then push ready (ready_key j)
  done;
  let order = ref [] in
  let cycle = ref 0 in
  let remaining = ref n in
  let rec release lj = function
    | [] -> ()
    | (succ, l) :: rest ->
        unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
        earliest.(succ) <-
          Int.max earliest.(succ) (!cycle + edge_latency lj l);
        if unscheduled_preds.(succ) = 0 then
          push pending ((earliest.(succ) * n) + succ);
        release lj rest
  in
  while !remaining > 0 do
    if ready.size = 0 then cycle := Int.max !cycle (pending.keys.(0) / n);
    while pending.size > 0 && pending.keys.(0) / n <= !cycle do
      push ready (ready_key (pop pending mod n))
    done;
    let issued = ref 0 in
    while !issued < md.Machdesc.issue_width && ready.size > 0 do
      let j = pop ready mod n in
      incr issued;
      decr remaining;
      order := j :: !order;
      release lat.(j) g.Ddg.succs.(j)
    done;
    incr cycle
  done;
  List.rev_map (fun j -> g.Ddg.insns.(j)) !order

(** Schedule [p] for every machine of [mds], block by block: each
    block's DDG is built once, in the given alias mode, and
    list-scheduled for every machine before the next block is built, so
    only one block's graph is alive at a time.  The GCC and HLI queries
    and their statistics are therefore one machine's worth.

    Returns one program per machine, in [mds] order, and the query
    statistics.  Each program has fresh function and block records that
    share [p]'s instruction records; [p]'s blocks keep their order.
    Nothing writes an instruction record after the build, so the
    sharing is safe. *)
let schedule_program ~mode ?(combine_gcc = true) ~hli_of_fn
    ~(mds : Machdesc.t list) (p : program) : program list * Ddg.stats =
  let stats = Ddg.fresh_stats () in
  let schedule_fn (fn : fn) =
    let hli = hli_of_fn fn.fname in
    let blocks = List.map (fun _ -> Array.copy fn.blocks) mds in
    Array.iteri
      (fun k (b : block) ->
        let g = Ddg.build ~mode ~combine_gcc ~hli ~stats b.insns in
        List.iter2
          (fun md bs -> bs.(k) <- { b with insns = schedule_block ~md g })
          mds blocks)
      fn.blocks;
    List.map (fun bs -> { fn with blocks = bs }) blocks
  in
  let fns = List.map schedule_fn p.fns in
  ( List.mapi
      (fun m _ -> { p with fns = List.map (fun fs -> List.nth fs m) fns })
      mds,
    stats )
