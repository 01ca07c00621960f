(** In-order single-issue pipeline model (MIPS R4600).

    A scoreboard over the dynamic instruction stream: each instruction
    issues at the earliest cycle where (a) the previous instruction has
    issued (single issue), and (b) all its source registers are ready.
    Loads incur the L1 latency plus any cache-miss penalty; taken
    branches cost one bubble.  Because issue is strictly in order, a
    poorly scheduled block serializes on load-use stalls — which is
    exactly the effect HLI-enabled scheduling removes.

    {!Exec} reports each executed instruction through the entry point of
    its class ([alu], [fpu], [load], [store], [branch]); [pc] indexes
    the decoded program's tables, and the decoder bounds it and every
    register id, so the tables and the scoreboard are read unchecked. *)

type t = {
  cache : Cache.t;
  srcs_start : int array;  (** the decoded program's, see {!Code.code} *)
  srcs : int array;
  dst : int array;
  ready : int array;  (** globalized register -> cycle its value is ready *)
  lat : int array;  (** pc -> result latency *)
  misspec_penalty : int;
  mutable last_issue : int;
  mutable cycles : int;
}

let make ?(md = Backend.Machdesc.r4600) (code : Code.code) =
  {
    cache = Cache.r4600 ();
    srcs_start = code.Code.srcs_start;
    srcs = code.Code.srcs;
    dst = code.Code.dst;
    ready = Array.make code.Code.global_regs 0;
    lat = Array.map (Backend.Machdesc.latency md) code.Code.src;
    misspec_penalty = md.Backend.Machdesc.misspec_penalty;
    last_issue = 0;
    cycles = 0;
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

let alu t pc = compute t pc (Array.unsafe_get t.lat pc)

(* one scoreboard: the FP latencies are in [lat] *)
let fpu = alu

let load t pc addr = compute t pc (Array.unsafe_get t.lat pc + Cache.access t.cache addr)

(* a store that caught [misspec] misspeculated loads stalls the pipeline
   for the recovery (re-fetch and re-execute each load) *)
let store t pc addr misspec =
  let issue = issue t pc in
  let lat = Array.unsafe_get t.lat pc + Cache.access t.cache addr in
  t.last_issue <- issue + (misspec * t.misspec_penalty);
  finish t (issue + lat)

(* taken control transfers flush the fetch stage: one bubble *)
let branch t pc taken =
  let issue = issue t pc in
  t.last_issue <- (if taken then issue + 1 else issue);
  finish t (issue + Array.unsafe_get t.lat pc)

let cycles t = t.cycles
