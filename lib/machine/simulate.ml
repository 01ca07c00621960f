(** Glue: run a lowered program on one of the machine models and report
    cycles plus execution statistics. *)

type machine = R4600 | R10000

type report = {
  machine : machine;
  cycles : int;
  dyn_insns : int;
  output : string;  (** program stdout, for output-equivalence checks *)
  ret : int;
  l1_hits : int;
  l1_misses : int;
  lsq_stalls : int;  (** 0 on the in-order machine *)
  misspeculations : int;
      (** speculative-load recoveries (0 unless scheduled with
          [--speculate]) *)
}

let machine_name = function R4600 -> "R4600" | R10000 -> "R10000"

(** [md] overrides the machine description (default: the machine's own
    — {!Backend.Machdesc.r4600}/[r10000]); ablations use it to flip
    single knobs such as LSQ load blocking. *)
let run ?(fuel = 400_000_000) ?md (machine : machine)
    (prog : Backend.Rtl.program) : report =
  let code = Exec.decode prog in
  match machine with
  | R4600 ->
      let m = Exec.Inorder.make ?md code in
      let res = Exec.run_code ~fuel ~model:(Exec.R4600 m) code in
      let h, mi = Exec.Cache.l1_stats m.Exec.Inorder.cache in
      {
        machine;
        cycles = Exec.Inorder.cycles m;
        dyn_insns = res.Exec.dyn_count;
        output = res.Exec.output;
        ret = res.Exec.ret;
        l1_hits = h;
        l1_misses = mi;
        lsq_stalls = 0;
        misspeculations = res.Exec.misspec;
      }
  | R10000 ->
      let m = Exec.Ooo.make ?md code in
      let res = Exec.run_code ~fuel ~model:(Exec.R10000 m) code in
      let h, mi = Exec.Cache.l1_stats m.Exec.Ooo.cache in
      {
        machine;
        cycles = Exec.Ooo.cycles m;
        dyn_insns = res.Exec.dyn_count;
        output = res.Exec.output;
        ret = res.Exec.ret;
        l1_hits = h;
        l1_misses = mi;
        lsq_stalls = m.Exec.Ooo.lsq_stall_cycles;
        misspeculations = res.Exec.misspec;
      }

(** Functional-only run (no timing), for correctness checks. *)
let run_functional ?(fuel = 400_000_000) (prog : Backend.Rtl.program) : Exec.result =
  Exec.run ~fuel prog
