(** Static machine descriptions shared by the scheduler and the timing
    models: operation latencies and issue characteristics of the two
    evaluation machines (paper Section 4.3). *)

type t = {
  name : string;
  issue_width : int;  (** instructions issued per cycle *)
  window : int;  (** out-of-order window (1 = in-order) *)
  int_lat : int;
  mul_lat : int;
  div_lat : int;
  fadd_lat : int;
  fmul_lat : int;
  fdiv_lat : int;
  load_lat : int;  (** L1-hit load-to-use latency *)
  call_fixed : int;  (** fixed overhead charged per call *)
  lsq_blocking : bool;
      (** loads wait for all earlier stores' addresses (R10000 LSQ rule) *)
}

(** MIPS R4600: single-issue, in-order, five-stage pipeline. *)
let r4600 =
  {
    name = "R4600";
    issue_width = 1;
    window = 1;
    int_lat = 1;
    mul_lat = 10;
    div_lat = 36;
    fadd_lat = 4;
    fmul_lat = 8;
    fdiv_lat = 32;
    load_lat = 2;
    call_fixed = 2;
    lsq_blocking = false;
  }

(** MIPS R10000: four-issue, out-of-order, with a load/store queue in
    which a load is not issued to memory until every preceding store's
    address is known. *)
let r10000 =
  {
    name = "R10000";
    issue_width = 4;
    window = 32;
    int_lat = 1;
    mul_lat = 6;
    div_lat = 35;
    fadd_lat = 2;
    fmul_lat = 2;
    fdiv_lat = 19;
    load_lat = 2;
    call_fixed = 2;
    lsq_blocking = true;
  }

(** Result latency of an instruction (cycles until its value is
    usable). *)
let latency (md : t) (i : Rtl.insn) : int =
  match i.Rtl.desc with
  | Rtl.Li _ | Rtl.La _ | Rtl.Laf _ | Rtl.Getarg _ -> md.int_lat
  | Rtl.Alu (op, _, _, _) -> (
      match op with
      | Rtl.Mul -> md.mul_lat
      | Rtl.Div | Rtl.Rem -> md.div_lat
      | _ -> md.int_lat)
  | Rtl.Falu (op, _, _, _) -> (
      match op with
      | Rtl.Fadd | Rtl.Fsub -> md.fadd_lat
      | Rtl.Fmul -> md.fmul_lat
      | Rtl.Fdiv -> md.fdiv_lat
      | Rtl.Fslt | Rtl.Fsle | Rtl.Fseq | Rtl.Fsne -> md.fadd_lat)
  | Rtl.Load _ -> md.load_lat
  | Rtl.Store _ -> 1
  | Rtl.Cvt_i2f _ | Rtl.Cvt_f2i _ -> md.fadd_lat
  | Rtl.Call _ -> md.call_fixed
  | Rtl.Br_eqz _ | Rtl.Br_nez _ | Rtl.Jmp _ | Rtl.Ret _ -> 1
