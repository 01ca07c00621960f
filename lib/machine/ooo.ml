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

(* function units, as ranges of [units]: 2 integer ALUs, 2 FP units,
   1 memory port *)
let alu = 0

let fpu = 1

let mem = 2

let unit_lo = [| 0; 2; 4 |]

let unit_hi = [| 2; 4; 5 |]

type t = {
  md : Backend.Machdesc.t;
  cache : Cache.t;
  code : Exec.code;
  window : int;
  ready : int array;  (** globalized register -> cycle its value is ready *)
  lat : int array;  (** pc -> result latency *)
  kind : int array;  (** pc -> function unit kind *)
  is_load : bool array;
  is_store : bool array;
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

let make ?(md = Backend.Machdesc.r10000) (code : Exec.code) =
  let window = max 1 md.Backend.Machdesc.window in
  let src = code.Exec.src in
  {
    md;
    cache = Cache.r10000 ();
    code;
    window;
    ready = Array.make code.Exec.global_regs 0;
    lat = Array.map (Backend.Machdesc.latency md) src;
    kind =
      Array.map
        (fun (i : Backend.Rtl.insn) ->
          match i.Backend.Rtl.desc with
          | Backend.Rtl.Falu _ | Backend.Rtl.Cvt_i2f _ | Backend.Rtl.Cvt_f2i _ -> fpu
          | Backend.Rtl.Load _ | Backend.Rtl.Store _ -> mem
          | _ -> alu)
        src;
    is_load = Array.map Backend.Rtl.is_load src;
    is_store = Array.map Backend.Rtl.is_store src;
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

let push_store t ~complete ~retire addr =
  expire t (t.seq + 1);
  let k = (t.st_head + t.st_count) mod t.window in
  t.st_seq.(k) <- t.seq;
  t.st_complete.(k) <- complete;
  t.st_retire.(k) <- retire;
  t.st_addr.(k) <- addr;
  t.st_count <- t.st_count + 1

let step (t : t) (d : Exec.dyn) =
  let pc = d.Exec.d_pc in
  let md = t.md in
  let width = md.Backend.Machdesc.issue_width in
  (* in-order dispatch: [width] per cycle, and the ROB slot must have retired *)
  let oldest_retire = if t.seq >= t.window then t.rob_retire.(t.slot) else 0 in
  if t.dispatch_in_cycle >= width then begin
    t.dispatch_cycle <- t.dispatch_cycle + 1;
    t.dispatch_in_cycle <- 0
  end;
  if oldest_retire > t.dispatch_cycle then begin
    t.dispatch_cycle <- oldest_retire;
    t.dispatch_in_cycle <- 0
  end;
  let dispatch = t.dispatch_cycle in
  t.dispatch_in_cycle <- t.dispatch_in_cycle + 1;
  (* operands *)
  let code = t.code and ready = t.ready in
  let src_ready = ref 0 in
  for k = code.Exec.srcs_start.(pc) to code.Exec.srcs_start.(pc + 1) - 1 do
    let r = ready.(code.Exec.srcs.(k)) in
    if r > !src_ready then src_ready := r
  done;
  let operand_ready = imax dispatch !src_ready in
  let lsq_ready =
    if t.is_load.(pc) && md.Backend.Machdesc.lsq_blocking then
      lsq_wait t d.Exec.d_addr operand_ready
    else 0
  in
  if lsq_ready > operand_ready then
    t.lsq_stall_cycles <- t.lsq_stall_cycles + (lsq_ready - operand_ready);
  let can_issue = imax operand_ready lsq_ready in
  (* earliest free unit of the kind (the first, on ties) *)
  let kind = t.kind.(pc) and units = t.units in
  let best = ref unit_lo.(kind) in
  for u = unit_lo.(kind) + 1 to unit_hi.(kind) - 1 do
    if units.(u) < units.(!best) then best := u
  done;
  let issue = imax can_issue units.(!best) in
  units.(!best) <- issue + 1;
  let lat =
    if kind = mem then t.lat.(pc) + Cache.access t.cache d.Exec.d_addr else t.lat.(pc)
  in
  let complete = issue + lat in
  let dst = code.Exec.dst.(pc) in
  if dst >= 0 then ready.(dst) <- complete;
  (* in-order retirement, issue_width per cycle *)
  let retire = imax complete t.last_retire in
  let retire =
    if retire = t.last_retire then begin
      t.retired_in_cycle <- t.retired_in_cycle + 1;
      if t.retired_in_cycle >= width then begin
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
  (* a store that caught misspeculated loads replays them from the
     issue queue: dispatch restarts after the recovery window *)
  if d.Exec.d_misspec > 0 then begin
    t.dispatch_cycle <-
      imax t.dispatch_cycle
        (complete + (d.Exec.d_misspec * md.Backend.Machdesc.misspec_penalty));
    t.dispatch_in_cycle <- 0
  end;
  t.rob_retire.(t.slot) <- retire;
  if t.is_store.(pc) then push_store t ~complete ~retire d.Exec.d_addr;
  t.seq <- t.seq + 1;
  t.slot <- (if t.slot + 1 = t.window then 0 else t.slot + 1);
  if retire > t.cycles then t.cycles <- retire

let cycles t = t.cycles

let hook t : Exec.dyn -> unit = fun d -> step t d
