(** In-order single-issue pipeline model (MIPS R4600).

    A scoreboard over the dynamic instruction stream: each instruction
    issues at the earliest cycle where (a) the previous instruction has
    issued (single issue), and (b) all its source registers are ready.
    Loads incur the L1 latency plus any cache-miss penalty; taken
    branches cost one bubble.  Because issue is strictly in order, a
    poorly scheduled block serializes on load-use stalls — which is
    exactly the effect HLI-enabled scheduling removes. *)

type t = {
  md : Backend.Machdesc.t;
  cache : Cache.t;
  code : Exec.code;
  ready : int array;  (** globalized register -> cycle its value is ready *)
  lat : int array;  (** pc -> result latency *)
  is_mem : bool array;  (** pc -> load or store (goes through the cache) *)
  mutable last_issue : int;
  mutable cycles : int;
}

let make ?(md = Backend.Machdesc.r4600) (code : Exec.code) =
  {
    md;
    cache = Cache.r4600 ();
    code;
    ready = Array.make code.Exec.global_regs 0;
    lat = Array.map (Backend.Machdesc.latency md) code.Exec.src;
    is_mem =
      Array.map (fun i -> Backend.Rtl.is_load i || Backend.Rtl.is_store i) code.Exec.src;
    last_issue = 0;
    cycles = 0;
  }

let step (t : t) (d : Exec.dyn) =
  let pc = d.Exec.d_pc in
  let code = t.code and ready = t.ready in
  let src_ready = ref 0 in
  for k = code.Exec.srcs_start.(pc) to code.Exec.srcs_start.(pc + 1) - 1 do
    let r = ready.(code.Exec.srcs.(k)) in
    if r > !src_ready then src_ready := r
  done;
  let issue = if t.last_issue + 1 >= !src_ready then t.last_issue + 1 else !src_ready in
  let lat =
    if t.is_mem.(pc) then t.lat.(pc) + Cache.access t.cache d.Exec.d_addr else t.lat.(pc)
  in
  let dst = code.Exec.dst.(pc) in
  if dst >= 0 then ready.(dst) <- issue + lat;
  (* taken control transfers flush the fetch stage: one bubble *)
  t.last_issue <- (if d.Exec.d_taken then issue + 1 else issue);
  (* a store that caught a misspeculated load stalls the pipeline for
     the recovery (re-fetch and re-execute the load) *)
  if d.Exec.d_misspec > 0 then
    t.last_issue <-
      t.last_issue + (d.Exec.d_misspec * t.md.Backend.Machdesc.misspec_penalty);
  if issue + lat > t.cycles then t.cycles <- issue + lat

let cycles t = t.cycles

let hook t : Exec.dyn -> unit = fun d -> step t d
