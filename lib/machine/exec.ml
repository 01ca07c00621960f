(** Execution-driven RTL simulator core and its timing models.

    Runs a decoded {!Code.code} against a flat byte-addressed memory.
    Every interpreter arm knows its instruction's class, so it calls the
    timing model ({!Inorder}, {!Ooo}) for that class directly — [alu],
    [fpu], [load], [store] or [branch] — and the model consumes the
    dynamic stream on the fly: no trace is materialized and no per-pc
    class table is consulted.  A group run, which times several
    schedules of one program from one interpretation, is the exception:
    it records addresses and block exits, and each schedule's model
    replays them in its own order, on a spare core when there is one
    (see {!group}).

    Execution is a pc loop over unboxed [int array] / [float array]
    register stacks; nothing is allocated per executed instruction
    (DESIGN.md, "Simulator internals").

    Memory layout: globals are placed from [global_base] upward; each
    activation gets a frame below the previous one (stack grows down),
    with its 128-byte outgoing-argument area directly below the frame
    base, shared with the callee's incoming-argument view.  A frame
    whose argument area would reach below the end of the globals raises
    "stack overflow" instead of writing over them. *)

open Backend
include Code

(* ------------------------------------------------------------------ *)
(* Timing models                                                       *)
(* ------------------------------------------------------------------ *)

(* The models share the interpreter's compilation unit.  Dune's default
   profile compiles every module [-opaque], so a call into another unit
   is a [caml_applyN] through its module block; here each per-instruction
   step is a direct call the compiler can inline (DESIGN.md, "Simulator
   internals").  [pc] indexes the decoded program's tables, and the
   decoder bounds it and every register id, so the tables and the
   scoreboards are read unchecked. *)

(* Cache-line isolation.  A group run may walk two members on two cores
   at once (see {!group}), and each walk writes its member's model state
   per instruction.  The minor heap allocates blocks side by side, and
   promotion packs same-sized small blocks into shared pools, so two
   members' records and small arrays would share cache lines, and every
   write would take the line from the other core.  Hence one padding
   convention: each record with per-instruction mutable fields
   ([Cache.level], [Inorder.t], [Ooo.t], [walker]) starts and ends with
   eight unused int fields ([_h*], [_t*]), one cache line, so that no
   neighbour's field shares a line with its own; and each per-instruction
   mutable array comes from [own_lines]: at least 512 words, more than
   the minor heap takes, so the runtime gives it a block of its own, with
   eight unused words past its last element. *)
let own_lines n x = Array.make (max 512 (n + 8)) x

module Cache = struct
  (** 2-way set-associative cache model with LRU replacement, used as
      the L1 data cache (backed by an optional L2) of both machine
      models.  With two ways, LRU order is one bit per set: the way to
      evict next. *)

  type level = {
    _h0 : int; _h1 : int; _h2 : int; _h3 : int; _h4 : int; _h5 : int; _h6 : int; _h7 : int;
    sets : int;
    line_shift : int;  (** log2 line bytes *)
    set_shift : int;  (** log2 sets *)
    tags : int array;  (** [2 * set + way] = tag, -1 empty *)
    lru : int array;  (** set -> its least recently used way, 0 or 1 *)
    mutable hits : int;
    mutable misses : int;
    _t0 : int; _t1 : int; _t2 : int; _t3 : int; _t4 : int; _t5 : int; _t6 : int; _t7 : int;
  }

  let log2 n =
    let rec go k = if 1 lsl k >= n then k else go (k + 1) in
    let k = go 0 in
    if 1 lsl k <> n then invalid_arg "Cache: sizes must be powers of two";
    k

  let make_level ~size_bytes ~ways ~line_bytes =
    if ways <> 2 then invalid_arg "Cache: levels are 2-way";
    let sets = max 1 (size_bytes / (2 * line_bytes)) in
    {
      _h0 = 0; _h1 = 0; _h2 = 0; _h3 = 0; _h4 = 0; _h5 = 0; _h6 = 0; _h7 = 0;
      sets;
      line_shift = log2 line_bytes;
      set_shift = log2 sets;
      tags = own_lines (2 * sets) (-1);
      (* a set's first miss fills way 0 *)
      lru = own_lines sets 0;
      hits = 0;
      misses = 0;
      _t0 = 0; _t1 = 0; _t2 = 0; _t3 = 0; _t4 = 0; _t5 = 0; _t6 = 0; _t7 = 0;
    }

  (* true = hit.  Addresses are non-negative, so shifts and masks are the
     line/set/tag divisions. *)
  let[@inline] access_level l addr =
    let line = addr lsr l.line_shift in
    let set = line land (l.sets - 1) in
    let tag = line lsr l.set_shift in
    let tags = l.tags and way0 = 2 * set in
    if tags.(way0) = tag then begin
      l.lru.(set) <- 1;
      l.hits <- l.hits + 1;
      true
    end
    else if tags.(way0 + 1) = tag then begin
      l.lru.(set) <- 0;
      l.hits <- l.hits + 1;
      true
    end
    else begin
      let victim = l.lru.(set) in
      tags.(way0 + victim) <- tag;
      l.lru.(set) <- 1 - victim;
      l.misses <- l.misses + 1;
      false
    end

  type t = {
    l1 : level;
    l2 : level option;
    l2_penalty : int;  (** extra cycles on L1 miss, L2 hit *)
    mem_penalty : int;  (** extra cycles on L2 miss (or L1 miss, no L2) *)
  }

  (** Parameters of the R4600 board in the paper: 16 KB 2-way L1D, no L2,
      64 MB DRAM. *)
  let r4600 () =
    {
      l1 = make_level ~size_bytes:(16 * 1024) ~ways:2 ~line_bytes:32;
      l2 = None;
      l2_penalty = 0;
      mem_penalty = 30;
    }

  (** R10000: 32 KB 2-way L1D, 2 MB unified L2. *)
  let r10000 () =
    {
      l1 = make_level ~size_bytes:(32 * 1024) ~ways:2 ~line_bytes:32;
      l2 = Some (make_level ~size_bytes:(2 * 1024 * 1024) ~ways:2 ~line_bytes:64);
      l2_penalty = 8;
      mem_penalty = 60;
    }

  (** Access the hierarchy; returns the extra latency beyond an L1 hit. *)
  let[@inline] access t addr =
    if access_level t.l1 addr then 0
    else
      match t.l2 with
      | None -> t.mem_penalty
      | Some l2 ->
          if access_level l2 addr then t.l2_penalty
          else t.l2_penalty + t.mem_penalty

  let l1_stats t = (t.l1.hits, t.l1.misses)
end

module Inorder = struct
  (** In-order single-issue pipeline model (MIPS R4600).

      A scoreboard over the dynamic instruction stream: each instruction
      issues at the earliest cycle where (a) the previous instruction has
      issued (single issue), and (b) all its source registers are ready.
      Loads incur the L1 latency plus any cache-miss penalty; taken
      branches cost one bubble.  Because issue is strictly in order, a
      poorly scheduled block serializes on load-use stalls — which is
      exactly the effect HLI-enabled scheduling removes. *)

  type t = {
    _h0 : int; _h1 : int; _h2 : int; _h3 : int; _h4 : int; _h5 : int; _h6 : int; _h7 : int;
    cache : Cache.t;
    srcs_start : int array;  (** the decoded program's, see {!Code.code} *)
    srcs : int array;
    dst : int array;
    ready : int array;  (** globalized register -> cycle its value is ready *)
    lat : int array;  (** pc -> result latency *)
    mutable last_issue : int;
    mutable cycles : int;
    _t0 : int; _t1 : int; _t2 : int; _t3 : int; _t4 : int; _t5 : int; _t6 : int; _t7 : int;
  }

  let make ?(md = Backend.Machdesc.r4600) (code : Code.code) =
    {
      _h0 = 0; _h1 = 0; _h2 = 0; _h3 = 0; _h4 = 0; _h5 = 0; _h6 = 0; _h7 = 0;
      cache = Cache.r4600 ();
      srcs_start = code.Code.srcs_start;
      srcs = code.Code.srcs;
      dst = code.Code.dst;
      ready = own_lines code.Code.global_regs 0;
      lat = Array.map (Backend.Machdesc.latency md) code.Code.src;
      last_issue = 0;
      cycles = 0;
      _t0 = 0; _t1 = 0; _t2 = 0; _t3 = 0; _t4 = 0; _t5 = 0; _t6 = 0; _t7 = 0;
    }

  (* issue cycle of [pc]: after the previous instruction, once every
     source is ready *)
  let[@inline] issue t pc =
    let ready = t.ready and srcs = t.srcs in
    let at = ref (t.last_issue + 1) in
    for k = Array.unsafe_get t.srcs_start pc to Array.unsafe_get t.srcs_start (pc + 1) - 1 do
      let r = Array.unsafe_get ready (Array.unsafe_get srcs k) in
      if r > !at then at := r
    done;
    !at

  let[@inline] finish t done_at = if done_at > t.cycles then t.cycles <- done_at

  (* an instruction whose result is ready [lat] cycles after it issues *)
  let[@inline] compute t pc lat =
    let issue = issue t pc in
    let dst = Array.unsafe_get t.dst pc in
    if dst >= 0 then Array.unsafe_set t.ready dst (issue + lat);
    t.last_issue <- issue;
    finish t (issue + lat)

  let[@inline] alu t pc = compute t pc (Array.unsafe_get t.lat pc)

  (* one scoreboard: the FP latencies are in [lat] *)
  let[@inline] fpu t pc = alu t pc

  let[@inline] load t pc addr = compute t pc (Array.unsafe_get t.lat pc + Cache.access t.cache addr)

  let[@inline] store t pc addr =
    let issue = issue t pc in
    let lat = Array.unsafe_get t.lat pc + Cache.access t.cache addr in
    t.last_issue <- issue;
    finish t (issue + lat)

  (* taken control transfers flush the fetch stage: one bubble *)
  let[@inline] branch t pc taken =
    let issue = issue t pc in
    t.last_issue <- (if taken then issue + 1 else issue);
    finish t (issue + Array.unsafe_get t.lat pc)

  let cycles t = t.cycles
end

module Ooo = struct
  (** Out-of-order superscalar model (MIPS R10000).

      A window-based approximation of a 4-issue core: instructions
      dispatch in order ([issue_width] per cycle) into a reorder buffer of
      [Machdesc.window] entries, issue out of order when their operands
      are ready and a function unit is free, and retire in order
      ([issue_width] per cycle).

      The load/store queue implements the rule the paper singles out as
      the reason the R10000 profits more from HLI scheduling: {e a load is
      not issued to the memory system until the addresses of all earlier
      stores in the queue are known}.  A conservatively ordered static
      schedule therefore delays address computations of stores — and every
      younger load pays for it; the HLI schedule hoists loads above
      stores, making their issue independent. *)

  (* function units, indexes of [units]: integer ALUs 0-1, FP units 2-3,
     memory port 4 *)
  type t = {
    _h0 : int; _h1 : int; _h2 : int; _h3 : int; _h4 : int; _h5 : int; _h6 : int; _h7 : int;
    cache : Cache.t;
    window : int;
    issue_width : int;
    lsq_blocking : bool;
    srcs_start : int array;  (** the decoded program's, see {!Code.code} *)
    srcs : int array;
    dst : int array;
    ready : int array;  (** globalized register -> cycle its value is ready *)
    lat : int array;  (** pc -> result latency *)
    rob_retire : int array;  (** ROB slot -> retire cycle of its occupant *)
    mutable slot : int;  (** ROB slot of the next instruction: [seq mod window] *)
    mutable seq : int;  (** instructions dispatched so far *)
    (* in-flight stores, oldest first: a ring of [window] entries *)
    st_seq : int array;
    st_complete : int array;
    st_retire : int array;
    st_addr : int array;
    mutable st_head : int;
    mutable st_count : int;
    mutable dispatch_cycle : int;
    mutable dispatch_in_cycle : int;
    mutable last_retire : int;
    mutable retired_in_cycle : int;
    units : int array;  (** next-free cycle per function unit *)
    mutable lsq_stall_cycles : int;  (** diagnostic: issue delay due to LSQ *)
    _t0 : int; _t1 : int; _t2 : int; _t3 : int; _t4 : int; _t5 : int; _t6 : int; _t7 : int;
  }

  let make ?(md = Backend.Machdesc.r10000) (code : Code.code) =
    let window = max 1 md.Backend.Machdesc.window in
    {
      _h0 = 0; _h1 = 0; _h2 = 0; _h3 = 0; _h4 = 0; _h5 = 0; _h6 = 0; _h7 = 0;
      cache = Cache.r10000 ();
      window;
      issue_width = md.Backend.Machdesc.issue_width;
      lsq_blocking = md.Backend.Machdesc.lsq_blocking;
      srcs_start = code.Code.srcs_start;
      srcs = code.Code.srcs;
      dst = code.Code.dst;
      ready = own_lines code.Code.global_regs 0;
      lat = Array.map (Backend.Machdesc.latency md) code.Code.src;
      rob_retire = own_lines window 0;
      slot = 0;
      seq = 0;
      st_seq = own_lines window 0;
      st_complete = own_lines window 0;
      st_retire = own_lines window 0;
      st_addr = own_lines window 0;
      st_head = 0;
      st_count = 0;
      dispatch_cycle = 0;
      dispatch_in_cycle = 0;
      last_retire = 0;
      retired_in_cycle = 0;
      units = own_lines 5 0;
      lsq_stall_cycles = 0;
      _t0 = 0; _t1 = 0; _t2 = 0; _t3 = 0; _t4 = 0; _t5 = 0; _t6 = 0; _t7 = 0;
    }

  let[@inline] imax (a : int) b = if a >= b then a else b

  (* Forget stores no instruction from [seq] on can see: a load scans the
     [window - 1] instructions before it, never instruction 0. *)
  let expire t seq =
    let lo = imax 1 (seq - t.window + 1) in
    while t.st_count > 0 && t.st_seq.(t.st_head) < lo do
      t.st_head <- (if t.st_head + 1 = t.window then 0 else t.st_head + 1);
      t.st_count <- t.st_count - 1
    done

  (* LSQ rule: loads wait until all earlier in-flight stores have known
     addresses; if an earlier store writes the same word, wait for its
     completion (forwarding takes one extra cycle).  Stores still in
     flight (not yet retired) gate the load: the R10000 does not issue a
     load past a store whose independence is not yet established, so the
     load waits until the earlier store has executed (or forwarded,
     same-word case).  The wait is a max over those stores, so visiting
     the store ring instead of every older ROB slot gives the same cycle. *)
  let lsq_wait t addr operand_ready =
    expire t t.seq;
    let w = ref 0 and j = ref t.st_head in
    for _ = 1 to t.st_count do
      let k = !j in
      if t.st_retire.(k) > operand_ready then begin
        let c = t.st_complete.(k) in
        let c = if t.st_addr.(k) land lnot 7 = addr land lnot 7 then c + 1 else c in
        if c > !w then w := c
      end;
      j := if k + 1 = t.window then 0 else k + 1
    done;
    !w

  (* After [expire], at most [window - 1] stores are live (DESIGN.md,
     "Simulator internals"), so the tail index wraps at most once. *)
  let push_store t ~complete ~retire addr =
    expire t (t.seq + 1);
    let k = t.st_head + t.st_count in
    let k = if k >= t.window then k - t.window else k in
    t.st_seq.(k) <- t.seq;
    t.st_complete.(k) <- complete;
    t.st_retire.(k) <- retire;
    t.st_addr.(k) <- addr;
    t.st_count <- t.st_count + 1

  (* In-order dispatch, [issue_width] per cycle, once the ROB slot's
     previous occupant has retired (the ROB starts all zeros, so the
     first [window] instructions never wait for it); returns the cycle
     [pc]'s operands are all ready, no earlier than its dispatch.  [slot]
     is below [window], so the ROB is read unchecked. *)
  let[@inline] operands t pc =
    let n = t.dispatch_in_cycle in
    let full = n >= t.issue_width in
    let dispatch = if full then t.dispatch_cycle + 1 else t.dispatch_cycle in
    let oldest_retire = Array.unsafe_get t.rob_retire t.slot in
    let stalled = oldest_retire > dispatch in
    let dispatch = if stalled then oldest_retire else dispatch in
    t.dispatch_cycle <- dispatch;
    t.dispatch_in_cycle <- (if full || stalled then 1 else n + 1);
    let ready = t.ready and srcs = t.srcs in
    let at = ref dispatch in
    for k = Array.unsafe_get t.srcs_start pc to Array.unsafe_get t.srcs_start (pc + 1) - 1 do
      let r = Array.unsafe_get ready (Array.unsafe_get srcs k) in
      if r > !at then at := r
    done;
    !at

  (* issue on unit [u] (0-4, so unchecked), no earlier than [can_issue] *)
  let[@inline] issue_on t u can_issue =
    let units = t.units in
    let issue = imax can_issue (Array.unsafe_get units u) in
    Array.unsafe_set units u (issue + 1);
    issue

  (* [pc]'s result is ready at [complete]; retire it in order,
     [issue_width] per cycle, and return the retire cycle *)
  let[@inline] retire_at t pc complete =
    let dst = Array.unsafe_get t.dst pc in
    if dst >= 0 then Array.unsafe_set t.ready dst complete;
    let last = t.last_retire in
    let retire =
      if complete > last then begin
        t.retired_in_cycle <- 1;
        complete
      end
      else begin
        let n = t.retired_in_cycle + 1 in
        let full = n >= t.issue_width in
        t.retired_in_cycle <- (if full then 0 else n);
        if full then last + 1 else last
      end
    in
    t.last_retire <- retire;
    retire

  (* the ROB slot of the instruction just dispatched frees at [retire] *)
  let[@inline] commit t retire =
    let slot = t.slot in
    Array.unsafe_set t.rob_retire slot retire;
    t.seq <- t.seq + 1;
    t.slot <- (if slot + 1 = t.window then 0 else slot + 1)

  (* a register-to-register instruction on the earlier-free unit of the
     pair [u], [u + 1] (unit [u] on ties) *)
  let[@inline] plain t pc u =
    let units = t.units in
    let u = if Array.unsafe_get units (u + 1) < Array.unsafe_get units u then u + 1 else u in
    let issue = issue_on t u (operands t pc) in
    commit t (retire_at t pc (issue + Array.unsafe_get t.lat pc))

  let[@inline] alu t pc = plain t pc 0

  let[@inline] fpu t pc = plain t pc 2

  (* the model has no fetch stage: a transfer costs what an ALU op does *)
  let[@inline] branch t pc (_taken : bool) = alu t pc

  let load t pc addr =
    let operand_ready = operands t pc in
    let lsq_ready = if t.lsq_blocking then lsq_wait t addr operand_ready else 0 in
    if lsq_ready > operand_ready then
      t.lsq_stall_cycles <- t.lsq_stall_cycles + (lsq_ready - operand_ready);
    let issue = issue_on t 4 (imax lsq_ready operand_ready) in
    let complete = issue + Array.unsafe_get t.lat pc + Cache.access t.cache addr in
    commit t (retire_at t pc complete)

  let store t pc addr =
    let issue = issue_on t 4 (operands t pc) in
    let complete = issue + Array.unsafe_get t.lat pc + Cache.access t.cache addr in
    let retire = retire_at t pc complete in
    push_store t ~complete ~retire addr;
    commit t retire

  let cycles t = t.last_retire
end

exception Runtime_error of string

exception Out_of_fuel

let mem_size = 32 * 1024 * 1024

let argout_bytes = 128

(** The timing model a run drives.  Each executed instruction is
    reported to it by class; [Functional] runs without one.  A [Group]
    run times several schedules of the program from one interpretation
    (see {!group}). *)
type model = Functional | R4600 of Inorder.t | R10000 of Ooo.t | Group of group

(* One interpretation timing several schedules (DESIGN.md, "One
   interpretation per group").  The interpreter runs the group's
   canonical code, a reordering of each block that every member's
   schedule agrees with around calls; the members' codes have the same
   pc layout, each block holding the same instructions in the member's
   order.  Loads and stores leave their address in the activation's
   slot window, indexed by pc; every user call and block exit appends
   an event (pc and flags) and a snapshot of the block instance's slots
   from its first pc to the event's.  The trace is a ring of
   [trace_chunks] chunks: when the one being filled is full it is
   published, and the interpreter fills the next slot of the ring while
   each member's walker replays the published chunks, in order, through
   its model in the member's own order.  A member's walk of a chunk
   waits only for its walk of the chunk before; the run's domain and a
   helper domain on a spare core each take any walk that can run (see
   {!publish}). *)
and group = {
  bstart : int array;  (** the decoded program's, see {!Code.code} *)
  walkers : walker array;
  ring : chunk array;  (** chunk [c] is [ring.(c mod trace_chunks)] *)
  mutable fill : chunk;  (** the chunk being filled, the run's domain's *)
  mutable chunks : int;  (** chunks published so far *)
  walked : int array;  (** member -> the chunks its walker has timed *)
  held : bool array;  (** member -> a domain is walking it *)
  mutable fault : exn option;  (** what a walk raised first *)
  mutable helper : unit Domain.t option;
  mutable stop : bool;  (** the helper returns *)
  lock : Mutex.t;  (** guards [chunks], [walked], [held], [fault] and [stop] *)
  changed : Condition.t;  (** broadcast on each publish, finished walk and the stop *)
  mutable wslots : int array;  (** activation slot windows, callee above caller *)
  mutable wtop : int;
  pairs : int array array;
      (** block's first pc -> memory pairs some member inverts, five ints
          each: the two pcs in prefix order, their sizes, the member *)
  moved : int array array;
      (** user call pc -> memory instructions some member moves across
          it, four ints each: pc, size, 1 for a store, the member *)
  mutable watch : int array;
      (** the moved accesses of the open calls, six ints each: address,
          size, 1 for a store, pc, call pc, member *)
  mutable nwatch : int;
}

(* A trace chunk: [nev] events, [pc lsl 3 lor flags], and their slot
   snapshots, back to back. *)
and chunk = {
  ev : int array;
  mutable nev : int;
  mutable snap : int array;  (** grown for a block longer than it *)
  mutable nsnap : int;
}

(* A member's replay: its model, made from its own code, and where each
   of its instructions sits in the canonical code. *)
and walker = {
  _h0 : int; _h1 : int; _h2 : int; _h3 : int; _h4 : int; _h5 : int; _h6 : int; _h7 : int;
  timing : model;  (** [R4600] or [R10000] *)
  kind : Bytes.t;
      (** member pc -> class: 1 alu, 2 fpu, 3 load, 4 store, 5 branch,
          0 untimed *)
  slot : int array;  (** member pc -> its address's offset in an event's snapshot *)
  at : int array;  (** canonical pc -> member pc of the same instruction *)
  mutable cur : int;  (** member pc of the next instruction to time; -1 between blocks *)
  mutable stack : int array;  (** the callers' cursors *)
  mutable depth : int;
  _t0 : int; _t1 : int; _t2 : int; _t3 : int; _t4 : int; _t5 : int; _t6 : int; _t7 : int;
}

(** A member orders two accesses against the prefix, or moves an access
    across a user call, and the accesses overlap at [addr] with at least
    one a store.  [first] and [second] are canonical pcs: the pair in
    prefix order, or the moved access and the call. *)
exception Overlap of { member : int; first : int; second : int; addr : int }

(* event flags *)
let f_taken = 1

let f_call = 2

let f_ret = 4

type result = {
  ret : int;
  output : string;
  dyn_count : int;  (** executed instructions *)
}

(* ------------------------------------------------------------------ *)
(* Group replay                                                        *)
(* ------------------------------------------------------------------ *)

let push_cursor w c =
  if w.depth = Array.length w.stack then begin
    let bigger = own_lines (2 * w.depth) 0 in
    Array.blit w.stack 0 bigger 0 w.depth;
    w.stack <- bigger
  end;
  w.stack.(w.depth) <- c;
  w.depth <- w.depth + 1

(* [main]'s return pops an empty stack *)
let pop_cursor w =
  if w.depth = 0 then -1
  else begin
    w.depth <- w.depth - 1;
    w.stack.(w.depth)
  end

(* After timing up to an event's instruction [stop]: a call saves the
   cursor past it, a return resumes the caller's, a block exit ends the
   instance. *)
let[@inline] advance w flags stop =
  if flags land f_call <> 0 then begin
    push_cursor w (stop + 1);
    w.cur <- -1
  end
  else if flags land f_ret <> 0 then w.cur <- pop_cursor w
  else w.cur <- -1

(* Per event of chunk [c], time the member's instructions from its
   cursor to its own position of the event's call or exit.  A branch
   before that position fell through.  One walker per model keeps every
   model call direct. *)
let walk_r4600 (m : Inorder.t) w bstart c =
  let ev = c.ev and snap = c.snap in
  let kind = w.kind and slot = w.slot in
  let base = ref 0 in
  for e = 0 to c.nev - 1 do
    let x = Array.unsafe_get ev e in
    let p = x lsr 3 in
    let b = Array.unsafe_get bstart p in
    if w.cur < 0 then w.cur <- b;
    let stop = Array.unsafe_get w.at p and sb = !base in
    for q = w.cur to stop do
      match Bytes.unsafe_get kind q with
      | '\001' -> Inorder.alu m q
      | '\002' -> Inorder.fpu m q
      | '\003' -> Inorder.load m q (Array.unsafe_get snap (sb + Array.unsafe_get slot q))
      | '\004' -> Inorder.store m q (Array.unsafe_get snap (sb + Array.unsafe_get slot q))
      | '\005' -> Inorder.branch m q (q = stop && x land f_taken <> 0)
      | _ -> ()
    done;
    base := sb + p - b + 1;
    advance w x stop
  done

let walk_r10000 (m : Ooo.t) w bstart c =
  let ev = c.ev and snap = c.snap in
  let kind = w.kind and slot = w.slot in
  let base = ref 0 in
  for e = 0 to c.nev - 1 do
    let x = Array.unsafe_get ev e in
    let p = x lsr 3 in
    let b = Array.unsafe_get bstart p in
    if w.cur < 0 then w.cur <- b;
    let stop = Array.unsafe_get w.at p and sb = !base in
    for q = w.cur to stop do
      match Bytes.unsafe_get kind q with
      | '\001' -> Ooo.alu m q
      | '\002' -> Ooo.fpu m q
      | '\003' -> Ooo.load m q (Array.unsafe_get snap (sb + Array.unsafe_get slot q))
      | '\004' -> Ooo.store m q (Array.unsafe_get snap (sb + Array.unsafe_get slot q))
      | '\005' -> Ooo.branch m q (q = stop && x land f_taken <> 0)
      | _ -> ()
    done;
    base := sb + p - b + 1;
    advance w x stop
  done

let walk g k c =
  let w = g.walkers.(k) in
  match w.timing with
  | R4600 m -> walk_r4600 m w g.bstart c
  | R10000 m -> walk_r10000 m w g.bstart c
  | Functional | Group _ -> ()

(* The ring: [trace_chunks] chunks of [trace_events] events and
   [trace_slots] snapshot slots each, 544 KB together. *)
let trace_chunks = 4

let trace_events = 1024

let trace_slots = 16384

(* With [lock] held: member [k]'s next walk can run, its chunk
   published and no domain holding the member. *)
let runnable g k = (not g.held.(k)) && g.walked.(k) < g.chunks

(* With [lock] held: the member whose next walk a domain takes, the
   one furthest behind of those that can run, or -1 if none can. *)
let next_member g =
  let best = ref (-1) in
  for k = 0 to Array.length g.walkers - 1 do
    if runnable g k && (!best < 0 || g.walked.(k) < g.walked.(!best)) then best := k
  done;
  !best

(* With [lock] held: walk member [k]'s next chunk, releasing the lock
   meanwhile.  A walk that raises is recorded, for the run's domain to
   re-raise, and still counts as walked, so that nobody waits for it. *)
let walk_next g k =
  let c = g.ring.(g.walked.(k) mod trace_chunks) in
  g.held.(k) <- true;
  Mutex.unlock g.lock;
  let raised = match walk g k c with () -> None | exception e -> Some e in
  Mutex.lock g.lock;
  if Option.is_none g.fault then g.fault <- raised;
  g.walked.(k) <- g.walked.(k) + 1;
  g.held.(k) <- false;
  Condition.broadcast g.changed

(** On the run's domain: publish the chunk being filled, walk until
    every member has walked all but the last [unwalked] published
    chunks, blocking only while no walk can run, and take the next ring
    slot to fill.  Each member's model is thus driven by one domain at a
    time, chunk by chunk in order: the lock orders one domain's walk of
    a member before the next domain's.  Re-raises what a walk raised. *)
let publish g ~unwalked =
  Mutex.lock g.lock;
  g.chunks <- g.chunks + 1;
  Condition.broadcast g.changed;
  let upto = g.chunks - unwalked in
  while Array.exists (fun n -> n < upto) g.walked do
    let k = next_member g in
    if k >= 0 then walk_next g k else Condition.wait g.changed g.lock
  done;
  let fault = g.fault in
  Mutex.unlock g.lock;
  Option.iter raise fault;
  let c = g.ring.(g.chunks mod trace_chunks) in
  c.nev <- 0;
  c.nsnap <- 0;
  g.fill <- c

(* The helper domain's loop: take every walk that can run, and block on
   [changed] while none can. *)
let help g =
  Mutex.lock g.lock;
  while not g.stop do
    let k = next_member g in
    if k >= 0 then walk_next g k else Condition.wait g.changed g.lock
  done;
  Mutex.unlock g.lock

(* Stop the helper, if there is one, and join it: at the end of the
   run, however it ends. *)
let stop_helper g =
  Option.iter
    (fun d ->
      Mutex.lock g.lock;
      g.stop <- true;
      Condition.broadcast g.changed;
      Mutex.unlock g.lock;
      g.helper <- None;
      Fun.protect ~finally:Pool.give_core (fun () -> Domain.join d))
    g.helper

(* At the trace's first fill: a helper for a group of two or more, if a
   core is spare (the budget is {!Pool.take_core}'s). *)
let start_helper g =
  if Array.length g.walkers >= 2 && Pool.take_core () then
    match Domain.spawn (fun () -> help g) with
    | d -> g.helper <- Some d
    | exception Failure _ -> Pool.give_core ()

(* Append the event of the user call or block exit at [pc], with the
   slots of its block instance so far; [win] is the activation's window
   base minus its function's first pc.  A full chunk is published, and
   the next one is filled once every member has walked what that ring
   slot held. *)
let event g ~win pc flags =
  let b = Array.unsafe_get g.bstart pc in
  let len = pc - b + 1 in
  let c = g.fill in
  if c.nev = Array.length c.ev || (c.nsnap + len > Array.length c.snap && c.nev > 0) then begin
    if g.chunks = 0 then start_helper g;
    publish g ~unwalked:(trace_chunks - 1)
  end;
  let c = g.fill in
  if len > Array.length c.snap then c.snap <- Array.make len 0;
  (* blocks are short: a loop beats [Array.blit]'s C call *)
  let sl = g.wslots and snap = c.snap and n = c.nsnap and from = win + b in
  for i = 0 to len - 1 do
    Array.unsafe_set snap (n + i) (Array.unsafe_get sl (from + i))
  done;
  c.nsnap <- n + len;
  c.ev.(c.nev) <- (pc lsl 3) lor flags;
  c.nev <- c.nev + 1

(* The oracle over one block instance, at its exit: no pair a member
   inverts may overlap. *)
let check_pairs g ~win (ps : int array) =
  let sl = g.wslots in
  for k = 0 to (Array.length ps / 5) - 1 do
    let a = ps.(5 * k) and b = ps.((5 * k) + 1) in
    let xa = sl.(win + a) and xb = sl.(win + b) in
    if xa < xb + ps.((5 * k) + 3) && xb < xa + ps.((5 * k) + 2) then
      raise (Overlap { member = ps.((5 * k) + 4); first = a; second = b; addr = max xa xb })
  done

(* The oracle inside a call: no access of the callee, transitively, may
   overlap an access some member moved across an open call, unless both
   are loads. *)
let check_watch g addr size store =
  let wt = g.watch in
  for k = 0 to g.nwatch - 1 do
    let a = wt.(6 * k) in
    if (store || wt.((6 * k) + 2) = 1) && a < addr + size && addr < a + wt.((6 * k) + 1) then
      raise
        (Overlap
           { member = wt.((6 * k) + 5); first = wt.((6 * k) + 3); second = wt.((6 * k) + 4); addr = max a addr })
  done

(* At a user call: its event, then watch the accesses members moved
   across it (each has run: the canonical order puts them before it). *)
let enter_call g ~win pc =
  event g ~win pc f_call;
  let mv = g.moved.(pc) in
  let n = Array.length mv / 4 in
  if n > 0 then begin
    if 6 * (g.nwatch + n) > Array.length g.watch then begin
      let bigger = Array.make (2 * 6 * (g.nwatch + n)) 0 in
      Array.blit g.watch 0 bigger 0 (6 * g.nwatch);
      g.watch <- bigger
    end;
    for k = 0 to n - 1 do
      let e = 6 * (g.nwatch + k) and op = mv.(4 * k) in
      g.watch.(e) <- g.wslots.(win + op);
      g.watch.(e + 1) <- mv.((4 * k) + 1);
      g.watch.(e + 2) <- mv.((4 * k) + 2);
      g.watch.(e + 3) <- op;
      g.watch.(e + 4) <- pc;
      g.watch.(e + 5) <- mv.((4 * k) + 3)
    done;
    g.nwatch <- g.nwatch + n
  end

(** A group run's state over the canonical [code].  Each member is its
    model (made from its own code), its code, and, per pc of that code,
    the canonical pc of the same instruction.  [pairs] lists the memory
    pairs a member inverts (member, the two canonical pcs in prefix
    order); [moved], the memory instructions a member moves across a
    user call (member, the instruction's canonical pc, the call's). *)
let make_group (code : code) ~members ~pairs ~moved =
  let npc = Array.length code.insns in
  let size pc =
    match code.insns.(pc) with
    | Load_i (_, m) | Load_f (_, m) | Store_i (m, _) | Store_f (m, _) -> m.size
    | _ -> 0
  in
  let store pc = match code.insns.(pc) with Store_i _ | Store_f _ -> 1 | _ -> 0 in
  let walker (timing, (mc : code), to_canon) =
    (* the class each interpreter arm reports its instruction as *)
    let kind =
      Bytes.init npc (fun q ->
          match mc.insns.(q) with
          | Mov_i _ | Mov_f _ | Laf _ | Alu _ | Call _ -> '\001'
          | Falu _ | Cvt_i2f _ | Cvt_f2i _ -> '\002'
          | Load_i _ | Load_f _ -> '\003'
          | Store_i _ | Store_f _ -> '\004'
          | Br_eqz _ | Br_nez _ | Jmp _ | Ret_i _ | Ret_f _ -> '\005'
          | Fall | Trap _ -> '\000')
    in
    let at = Array.make npc 0 in
    Array.iteri (fun q c -> at.(c) <- q) to_canon;
    {
      _h0 = 0; _h1 = 0; _h2 = 0; _h3 = 0; _h4 = 0; _h5 = 0; _h6 = 0; _h7 = 0;
      timing;
      kind;
      slot = Array.map (fun c -> c - code.bstart.(c)) to_canon;
      at;
      cur = -1;
      stack = own_lines 16 0;
      depth = 0;
      _t0 = 0; _t1 = 0; _t2 = 0; _t3 = 0; _t4 = 0; _t5 = 0; _t6 = 0; _t7 = 0;
    }
  in
  (* entries grouped by the pc [key] picks, packed in order *)
  let by_pc key pack l =
    let t = Array.make npc [] in
    List.iter (fun e -> t.(key e) <- e :: t.(key e)) (List.rev l);
    Array.map (fun es -> Array.of_list (List.concat_map pack es)) t
  in
  let walkers = Array.of_list (List.map walker members) in
  let ring =
    Array.init trace_chunks (fun _ ->
        { ev = Array.make trace_events 0; nev = 0; snap = Array.make trace_slots 0; nsnap = 0 })
  in
  {
    bstart = code.bstart;
    walkers;
    ring;
    fill = ring.(0);
    chunks = 0;
    walked = Array.make (Array.length walkers) 0;
    held = Array.make (Array.length walkers) false;
    fault = None;
    helper = None;
    stop = false;
    lock = Mutex.create ();
    changed = Condition.create ();
    wslots = Array.make 4096 0;
    wtop = 0;
    pairs =
      by_pc
        (fun (_, a, _) -> code.bstart.(a))
        (fun (m, a, b) -> [ a; b; size a; size b; m ])
        pairs;
    moved = by_pc (fun (_, _, c) -> c) (fun (m, op, _) -> [ op; size op; store op; m ]) moved;
    watch = Array.make 60 0;
    nwatch = 0;
  }

(* ------------------------------------------------------------------ *)
(* Memory image                                                        *)
(* ------------------------------------------------------------------ *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external get32 : bigstring -> int -> int32 = "%caml_bigstring_get32u"
external set32 : bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get64 : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external set64 : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"
external big_endian : unit -> bool = "%big_endian"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let page_shift = 12

(* One image per domain: a private mapping of /dev/zero, so a page costs
   memory only once a run writes it.  Every store marks the pages it
   touches in [dirty] (one byte a page), and [fresh_image] zeroes the
   marked pages at the start of the next run, whatever ended the last
   one.  Runs on one domain must therefore not overlap: two threads of
   one domain may not simulate at once.  A mapping per run would keep
   its pages resident until the GC finalized it. *)
type image = { mem : bigstring; dirty : Bytes.t }

let image_key =
  Domain.DLS.new_key (fun () ->
      (* read-write: [map_file] grows the file it maps with a one-byte write *)
      let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
      let mem =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.map_file fd Bigarray.char Bigarray.c_layout false [| mem_size |])
      in
      {
        mem = Bigarray.array1_of_genarray mem;
        dirty = Bytes.make (mem_size lsr page_shift) '\000';
      })

let fresh_image () =
  let im = Domain.DLS.get image_key in
  for p = 0 to Bytes.length im.dirty - 1 do
    if Bytes.get im.dirty p <> '\000' then begin
      let page = Bigarray.Array1.sub im.mem (p lsl page_shift) (1 lsl page_shift) in
      Bigarray.Array1.fill page '\000';
      Bytes.set im.dirty p '\000'
    end
  done;
  im

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  code : code;
  mem : bigstring;
  dirty : Bytes.t;  (** the image's, see {!image} *)
  out : Buffer.t;
  mutable ir : int array;  (** integer register stack *)
  mutable fr : float array;  (** float register stack, same slots *)
  mutable ret_i : int;  (** returned value, integer view *)
  ret_f : float array;  (** returned value, float view (one slot) *)
  mutable rand_state : int;
  limit : int;  (** instruction budget ([max_int]: unlimited) *)
  mutable executed : int;
  model : model;
}

let out_of_range addr =
  raise (Runtime_error (Printf.sprintf "address out of range: 0x%x" addr))

(* The image is little-endian; on a little-endian host the swaps fold
   away. *)
let[@inline] load_int st addr =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  let v = get32 st.mem addr in
  Int32.to_int (if big_endian () then swap32 v else v)

(* the page of an access's first and of its last byte *)
let[@inline] mark st addr size =
  Bytes.unsafe_set st.dirty (addr lsr page_shift) '\001';
  Bytes.unsafe_set st.dirty ((addr + size - 1) lsr page_shift) '\001'

let[@inline] store_int st addr v =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  mark st addr 4;
  let v = Int32.of_int v in
  set32 st.mem addr (if big_endian () then swap32 v else v)

let[@inline] load_flt st addr =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  let v = get64 st.mem addr in
  Int64.float_of_bits (if big_endian () then swap64 v else v)

let[@inline] store_flt st addr x =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  mark st addr 8;
  let v = Int64.bits_of_float x in
  set64 st.mem addr (if big_endian () then swap64 v else v)

(* Register-stack slots.  The decoder bounds every register operand by
   its function's window and [reserve] sizes the stacks before an
   activation starts, so these skip the bounds check. *)
let[@inline] ir_get st i = Array.unsafe_get st.ir i
let[@inline] ir_set st i v = Array.unsafe_set st.ir i v
let[@inline] fr_get st i = Array.unsafe_get st.fr i
let[@inline] fr_set st i x = Array.unsafe_set st.fr i x

let[@inline] iget st rb o =
  if o >= 0 then ir_get st (rb + o)
  else
    let k = -1 - o in
    if k land 1 = 0 then Array.unsafe_get st.code.ki (k lsr 1)
    else int_of_float (fr_get st (rb + (k lsr 1)))

let[@inline] fget st rb o =
  if o >= 0 then fr_get st (rb + o)
  else
    let k = -1 - o in
    if k land 1 = 0 then Array.unsafe_get st.code.kf (k lsr 1)
    else float_of_int (ir_get st (rb + (k lsr 1)))

let[@inline] iset st rb d v =
  if d >= 0 then ir_set st (rb + d) v else fr_set st (rb - 1 - d) (float_of_int v)

let[@inline] fset st rb d x =
  if d >= 0 then fr_set st (rb + d) x else ir_set st (rb - 1 - d) (int_of_float x)

let[@inline] addr_of st ~rb ~fp ~sp m =
  let b =
    match m.base with
    | Abs -> 0
    | Breg r -> ir_get st (rb + r)
    | Frame -> fp
    | Argout -> fp - argout_bytes
    | Argin -> sp
  in
  if m.index >= 0 then b + m.off + (ir_get st (rb + m.index) * m.scale) else b + m.off

(* The check comes before the count: with [fuel = n] exactly [n]
   instructions execute (and reach the model) before the n+1st
   raises. *)
let[@inline] count st =
  if st.executed >= st.limit then raise Out_of_fuel;
  st.executed <- st.executed + 1

(* [emit_*]: count the executed instruction at [pc] and report it
   through its class's model entry point.  A group run leaves an
   access's address in its slot ([win] is the activation's window base
   minus its function's first pc) and checks it against the accesses
   moved across the open calls. *)
let[@inline] emit_alu st pc =
  count st;
  match st.model with
  | Functional | Group _ -> ()
  | R4600 m -> Inorder.alu m pc
  | R10000 m -> Ooo.alu m pc

let[@inline] emit_fpu st pc =
  count st;
  match st.model with
  | Functional | Group _ -> ()
  | R4600 m -> Inorder.fpu m pc
  | R10000 m -> Ooo.fpu m pc

let[@inline] emit_load st ~win pc addr size =
  count st;
  match st.model with
  | Functional -> ()
  | R4600 m -> Inorder.load m pc addr
  | R10000 m -> Ooo.load m pc addr
  | Group g ->
      Array.unsafe_set g.wslots (win + pc) addr;
      if g.nwatch > 0 then check_watch g addr size false

let[@inline] emit_store st ~win pc addr size =
  count st;
  match st.model with
  | Functional -> ()
  | R4600 m -> Inorder.store m pc addr
  | R10000 m -> Ooo.store m pc addr
  | Group g ->
      Array.unsafe_set g.wslots (win + pc) addr;
      if g.nwatch > 0 then check_watch g addr size true

(* A branch that falls through *)
let[@inline] emit_branch st pc =
  count st;
  match st.model with
  | Functional | Group _ -> ()
  | R4600 m -> Inorder.branch m pc false
  | R10000 m -> Ooo.branch m pc false

(* A block instance ends at [pc]: in a group run, check its inverted
   pairs and append its event. *)
let group_exit g ~win pc flags =
  let ps = Array.unsafe_get g.pairs (Array.unsafe_get g.bstart pc) in
  if Array.length ps > 0 then check_pairs g ~win ps;
  event g ~win pc flags

(* A transfer that redirects the pc, ending the block instance *)
let[@inline] emit_taken st ~win pc flags =
  count st;
  match st.model with
  | Functional -> ()
  | R4600 m -> Inorder.branch m pc true
  | R10000 m -> Ooo.branch m pc true
  | Group g -> group_exit g ~win pc flags

(* An activation's slot window: [npcs] slots above its caller's.
   Returns the window base minus the function's first pc. *)
let open_window st (f : fn) =
  match st.model with
  | Functional | R4600 _ | R10000 _ -> 0
  | Group g ->
      let base = g.wtop in
      if base + f.npcs > Array.length g.wslots then begin
        let bigger = Array.make (max (base + f.npcs) (2 * Array.length g.wslots)) 0 in
        Array.blit g.wslots 0 bigger 0 base;
        g.wslots <- bigger
      end;
      g.wtop <- base + f.npcs;
      base - f.first

let close_window st (f : fn) ~win =
  match st.model with Functional | R4600 _ | R10000 _ -> () | Group g -> g.wtop <- win + f.first

let[@inline] ret_int st v =
  st.ret_i <- v;
  st.ret_f.(0) <- float_of_int v

let[@inline] ret_flt st x =
  st.ret_i <- int_of_float x;
  st.ret_f.(0) <- x

(* [nargs] arguments are in the register-stack slots from [a0]; a
   missing first argument reads as 0 (1 for [srand]) *)
let exec_builtin st b ~a0 ~nargs =
  let f0 = if nargs > 0 then fr_get st a0 else 0.0 in
  let i0 = if nargs > 0 then ir_get st a0 else 0 in
  match b with
  | Sqrt -> ret_flt st (sqrt f0)
  | Fabs -> ret_flt st (abs_float f0)
  | Exp -> ret_flt st (exp f0)
  | Log -> ret_flt st (log f0)
  | Sin -> ret_flt st (sin f0)
  | Cos -> ret_flt st (cos f0)
  | Pow -> ret_flt st (if nargs = 2 then Float.pow f0 (fr_get st (a0 + 1)) else 0.0)
  | Abs_int -> ret_int st (abs i0)
  | Print_int ->
      Buffer.add_string st.out (string_of_int i0);
      Buffer.add_char st.out '\n';
      ret_int st 0
  | Print_double ->
      Buffer.add_string st.out (Printf.sprintf "%.6f" f0);
      Buffer.add_char st.out '\n';
      ret_int st 0
  | Rand ->
      (* deterministic LCG (glibc constants), masked to 31 bits *)
      st.rand_state <- ((st.rand_state * 1103515245) + 12345) land 0x7fffffff;
      ret_int st st.rand_state
  | Srand ->
      st.rand_state <- (if nargs > 0 then i0 else 1);
      ret_int st 0

let[@inline] alu (op : Rtl.alu_op) a b =
  match op with
  | Rtl.Add -> a + b
  | Rtl.Sub -> a - b
  | Rtl.Mul -> a * b
  | Rtl.Div -> if b = 0 then raise (Runtime_error "division by zero") else a / b
  | Rtl.Rem -> if b = 0 then raise (Runtime_error "modulo by zero") else a mod b
  | Rtl.And -> a land b
  | Rtl.Or -> a lor b
  | Rtl.Xor -> a lxor b
  | Rtl.Shl -> a lsl (b land 31)
  | Rtl.Shr -> a asr (b land 31)
  | Rtl.Slt -> if a < b then 1 else 0
  | Rtl.Sle -> if a <= b then 1 else 0
  | Rtl.Seq -> if a = b then 1 else 0
  | Rtl.Sne -> if a <> b then 1 else 0

let[@inline] falu st rb (op : Rtl.falu_op) d (a : float) b =
  match op with
  | Rtl.Fadd -> fset st rb d (a +. b)
  | Rtl.Fsub -> fset st rb d (a -. b)
  | Rtl.Fmul -> fset st rb d (a *. b)
  | Rtl.Fdiv -> fset st rb d (a /. b)
  | Rtl.Fslt -> iset st rb d (if a < b then 1 else 0)
  | Rtl.Fsle -> iset st rb d (if a <= b then 1 else 0)
  | Rtl.Fseq -> iset st rb d (if a = b then 1 else 0)
  | Rtl.Fsne -> iset st rb d (if a <> b then 1 else 0)

(* Make room for register slots up to [upto] (exclusive). *)
let reserve st upto =
  let n = Array.length st.ir in
  if upto > n then begin
    let n' = max upto (2 * n) in
    let ir = Array.make n' 0 and fr = Array.make n' 0.0 in
    Array.blit st.ir 0 ir 0 n;
    Array.blit st.fr 0 fr 0 n;
    st.ir <- ir;
    st.fr <- fr
  end

(* Run activation [f] with its registers at [rb] (zeroed, arguments in
   place); the return value is left in [ret_i]/[ret_f]. *)
let rec exec_fn st (f : fn) ~sp ~rb =
  (* sp points just below the caller's outgoing-argument area *)
  let fp = sp - f.frame_size in
  if fp - argout_bytes < st.code.globals_end then raise (Runtime_error "stack overflow");
  let code = st.code.insns in
  let win = open_window st f in
  let pc = ref f.entry in
  while !pc >= 0 do
    let here = !pc in
    pc := here + 1;
    match Array.unsafe_get code here with
    | Mov_i (d, o) ->
        ir_set st (rb + d) (iget st rb o);
        emit_alu st here
    | Mov_f (d, o) ->
        fr_set st (rb + d) (fget st rb o);
        emit_alu st here
    | Laf (d, off) ->
        iset st rb d (fp + off);
        emit_alu st here
    | Alu (op, d, a, b) ->
        let v = alu op (iget st rb a) (iget st rb b) in
        iset st rb d v;
        emit_alu st here
    | Falu (op, d, a, b) ->
        falu st rb op d (fget st rb a) (fget st rb b);
        emit_fpu st here
    | Load_i (d, m) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        let v = load_int st addr in
        iset st rb d v;
        emit_load st ~win here addr m.size
    | Load_f (d, m) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        let x = load_flt st addr in
        fset st rb d x;
        emit_load st ~win here addr m.size
    | Store_i (m, o) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        store_int st addr (iget st rb o);
        emit_store st ~win here addr m.size
    | Store_f (m, o) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        store_flt st addr (fget st rb o);
        emit_store st ~win here addr m.size
    | Cvt_i2f (d, s) ->
        fr_set st (rb + d) (float_of_int (ir_get st (rb + s)));
        emit_fpu st here
    | Cvt_f2i (d, s) ->
        ir_set st (rb + d) (int_of_float (fr_get st (rb + s)));
        emit_fpu st here
    | Call c ->
        call st f c ~here ~fp ~rb ~win;
        if c.ret_reg >= 0 then begin
          if c.ret_flt then fr_set st (rb + c.ret_reg) st.ret_f.(0)
          else ir_set st (rb + c.ret_reg) st.ret_i
        end
    | Br_eqz (r, t) ->
        if ir_get st (rb + r) = 0 then begin
          emit_taken st ~win here f_taken;
          pc := t
        end
        else emit_branch st here
    | Br_nez (r, t) ->
        if ir_get st (rb + r) <> 0 then begin
          emit_taken st ~win here f_taken;
          pc := t
        end
        else emit_branch st here
    | Jmp t ->
        emit_taken st ~win here f_taken;
        pc := t
    | Ret_i o ->
        emit_taken st ~win here (f_taken lor f_ret);
        ret_int st (iget st rb o);
        pc := -1
    | Ret_f o ->
        emit_taken st ~win here (f_taken lor f_ret);
        ret_flt st (fget st rb o);
        pc := -1
    | Fall ->
        (match st.model with
        | Functional | R4600 _ | R10000 _ -> ()
        | Group g -> group_exit g ~win here f_ret);
        ret_int st 0;
        pc := -1
    | Trap msg -> raise (Runtime_error msg)
  done;
  close_window st f ~win

(* Arguments are evaluated, the call counted, then the callee runs.  The
   arguments go just above the caller's window: into a callee's argument
   slots, or scratch slots for a builtin.  Each slot holds the value in
   both classes, so reading a parameter needs no conversion. *)
and call st (f : fn) c ~here ~fp ~rb ~win =
  let args = c.args and rb' = rb + f.nregs + f.nargs in
  let a0 =
    match c.callee with
    | Fn g ->
        let callee = st.code.fns.(g) in
        let width = callee.nregs + callee.nargs in
        reserve st (rb' + width);
        Array.fill st.ir rb' width 0;
        Array.fill st.fr rb' width 0.0;
        rb' + callee.nregs
    | Builtin _ | Unknown _ ->
        reserve st (rb' + Array.length args);
        rb'
  in
  for k = 0 to Array.length args - 1 do
    if c.args_flt.(k) then begin
      let x = fget st rb args.(k) in
      fr_set st (a0 + k) x;
      ir_set st (a0 + k) (int_of_float x)
    end
    else begin
      let v = iget st rb args.(k) in
      ir_set st (a0 + k) v;
      fr_set st (a0 + k) (float_of_int v)
    end
  done;
  emit_alu st here;
  match c.callee with
  | Fn g -> (
      match st.model with
      | Functional | R4600 _ | R10000 _ ->
          exec_fn st st.code.fns.(g) ~sp:(fp - argout_bytes) ~rb:rb'
      | Group gr ->
          let watched = gr.nwatch in
          enter_call gr ~win here;
          exec_fn st st.code.fns.(g) ~sp:(fp - argout_bytes) ~rb:rb';
          gr.nwatch <- watched)
  | Builtin b -> exec_builtin st b ~a0 ~nargs:(Array.length args)
  | Unknown name -> raise (Runtime_error ("unknown builtin " ^ name))

(** Run a decoded program's [main], driving [model] (made from this
    [code]: its per-pc tables are read unchecked).  Raises
    {!Runtime_error} for bad programs and {!Out_of_fuel} when the
    instruction budget is exhausted — exactly [fuel] instructions
    execute before the budget trips, and [fuel = 0] (or negative) means
    unlimited. *)
let run_code ?(fuel = 400_000_000) ?(model = Functional) (code : code) : result =
  let made_for =
    match model with
    | Functional -> code.dst
    | R4600 m -> m.Inorder.dst
    | R10000 m -> m.Ooo.dst
    | Group g -> if g.bstart == code.bstart then code.dst else [||]
  in
  if made_for != code.dst then invalid_arg "Exec.run_code: model made for another program";
  if code.main < 0 then raise (Runtime_error "no main function");
  let image = fresh_image () in
  let main = code.fns.(code.main) in
  let st =
    {
      code;
      mem = image.mem;
      dirty = image.dirty;
      out = Buffer.create 256;
      ir = Array.make 4096 0;
      fr = Array.make 4096 0.0;
      ret_i = 0;
      ret_f = [| 0.0 |];
      rand_state = 123456789;
      limit = (if fuel > 0 then fuel else max_int);
      executed = 0;
      model;
    }
  in
  List.iter
    (fun (addr, init) ->
      match init with
      | Srclang.Tast.Ginit_int n -> store_int st addr n
      | Srclang.Tast.Ginit_float x -> store_flt st addr x)
    code.inits;
  reserve st (main.nregs + main.nargs);
  let run () = exec_fn st main ~sp:(mem_size - 64) ~rb:0 in
  (match model with
  | Functional | R4600 _ | R10000 _ -> run ()
  | Group g ->
      (* however the run ends, the helper is stopped and joined *)
      Fun.protect
        ~finally:(fun () -> stop_helper g)
        (fun () ->
          run ();
          publish g ~unwalked:0));
  { ret = st.ret_i; output = Buffer.contents st.out; dyn_count = st.executed }

(** Decode and run [prog] without a timing model (see {!run_code}). *)
let run ?fuel (prog : Rtl.program) : result = run_code ?fuel (decode prog)
