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
    stores, making their issue independent.

    {!Exec} reports each executed instruction through the entry point of
    its class ([alu], [fpu], [load], [store], [branch]); [pc] indexes
    the decoded program's tables, and the decoder bounds it and every
    register id, so the tables and the scoreboard are read unchecked. *)

(* function units, indexes of [units]: integer ALUs 0-1, FP units 2-3,
   memory port 4 *)
type t = {
  cache : Cache.t;
  window : int;
  issue_width : int;
  lsq_blocking : bool;
  misspec_penalty : int;
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
  mutable cycles : int;
  mutable lsq_stall_cycles : int;  (** diagnostic: issue delay due to LSQ *)
}

let make ?(md = Backend.Machdesc.r10000) (code : Code.code) =
  let window = max 1 md.Backend.Machdesc.window in
  {
    cache = Cache.r10000 ();
    window;
    issue_width = md.Backend.Machdesc.issue_width;
    lsq_blocking = md.Backend.Machdesc.lsq_blocking;
    misspec_penalty = md.Backend.Machdesc.misspec_penalty;
    srcs_start = code.Code.srcs_start;
    srcs = code.Code.srcs;
    dst = code.Code.dst;
    ready = Array.make code.Code.global_regs 0;
    lat = Array.map (Backend.Machdesc.latency md) code.Code.src;
    rob_retire = Array.make window 0;
    slot = 0;
    seq = 0;
    st_seq = Array.make window 0;
    st_complete = Array.make window 0;
    st_retire = Array.make window 0;
    st_addr = Array.make window 0;
    st_head = 0;
    st_count = 0;
    dispatch_cycle = 0;
    dispatch_in_cycle = 0;
    last_retire = 0;
    retired_in_cycle = 0;
    units = Array.make 5 0;
    cycles = 0;
    lsq_stall_cycles = 0;
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
   previous occupant has retired; returns the cycle [pc]'s operands are
   all ready, no earlier than its dispatch. *)
let[@inline] operands t pc =
  let oldest_retire = if t.seq >= t.window then t.rob_retire.(t.slot) else 0 in
  if t.dispatch_in_cycle >= t.issue_width then begin
    t.dispatch_cycle <- t.dispatch_cycle + 1;
    t.dispatch_in_cycle <- 0
  end;
  if oldest_retire > t.dispatch_cycle then begin
    t.dispatch_cycle <- oldest_retire;
    t.dispatch_in_cycle <- 0
  end;
  t.dispatch_in_cycle <- t.dispatch_in_cycle + 1;
  let ready = t.ready and srcs = t.srcs in
  let at = ref t.dispatch_cycle in
  for k = Array.unsafe_get t.srcs_start pc to Array.unsafe_get t.srcs_start (pc + 1) - 1 do
    let r = Array.unsafe_get ready (Array.unsafe_get srcs k) in
    if r > !at then at := r
  done;
  !at

(* issue on unit [u], no earlier than [can_issue] *)
let[@inline] issue_on t u can_issue =
  let issue = imax can_issue t.units.(u) in
  t.units.(u) <- issue + 1;
  issue

(* [pc]'s result is ready at [complete]; retire it in order,
   [issue_width] per cycle, and return the retire cycle *)
let[@inline] retire_at t pc complete =
  let dst = Array.unsafe_get t.dst pc in
  if dst >= 0 then Array.unsafe_set t.ready dst complete;
  let retire = imax complete t.last_retire in
  let retire =
    if retire = t.last_retire then begin
      t.retired_in_cycle <- t.retired_in_cycle + 1;
      if t.retired_in_cycle >= t.issue_width then begin
        t.retired_in_cycle <- 0;
        retire + 1
      end
      else retire
    end
    else begin
      t.retired_in_cycle <- 1;
      retire
    end
  in
  t.last_retire <- retire;
  retire

(* the ROB slot of the instruction just dispatched frees at [retire] *)
let[@inline] commit t retire =
  t.rob_retire.(t.slot) <- retire;
  t.seq <- t.seq + 1;
  t.slot <- (if t.slot + 1 = t.window then 0 else t.slot + 1);
  if retire > t.cycles then t.cycles <- retire

(* a register-to-register instruction on the earlier-free unit of the
   pair [u], [u + 1] (unit [u] on ties) *)
let[@inline] plain t pc u =
  let units = t.units in
  let u = if units.(u + 1) < units.(u) then u + 1 else u in
  let issue = issue_on t u (operands t pc) in
  commit t (retire_at t pc (issue + Array.unsafe_get t.lat pc))

let alu t pc = plain t pc 0

let fpu t pc = plain t pc 2

(* the model has no fetch stage: a transfer costs what an ALU op does *)
let branch t pc (_taken : bool) = alu t pc

let load t pc addr =
  let operand_ready = operands t pc in
  let can_issue =
    if t.lsq_blocking then begin
      let lsq_ready = lsq_wait t addr operand_ready in
      if lsq_ready > operand_ready then begin
        t.lsq_stall_cycles <- t.lsq_stall_cycles + (lsq_ready - operand_ready);
        lsq_ready
      end
      else operand_ready
    end
    else operand_ready
  in
  let issue = issue_on t 4 can_issue in
  let complete = issue + Array.unsafe_get t.lat pc + Cache.access t.cache addr in
  commit t (retire_at t pc complete)

(* a store that caught [misspec] misspeculated loads replays them from
   the issue queue: dispatch restarts after the recovery window *)
let store t pc addr misspec =
  let issue = issue_on t 4 (operands t pc) in
  let complete = issue + Array.unsafe_get t.lat pc + Cache.access t.cache addr in
  let retire = retire_at t pc complete in
  if misspec > 0 then begin
    t.dispatch_cycle <- imax t.dispatch_cycle (complete + (misspec * t.misspec_penalty));
    t.dispatch_in_cycle <- 0
  end;
  push_store t ~complete ~retire addr;
  commit t retire

let cycles t = t.cycles
