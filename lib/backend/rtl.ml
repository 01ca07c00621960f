(** RTL — the back end's low-level intermediate representation.

    Modeled on GCC's RTL at the granularity that matters for this
    reproduction: virtual registers in two classes, explicit memory
    references with structured addresses (base + constant offset +
    optional scaled index), calls with a register-argument/stack-argument
    split, and branches between labeled basic blocks.

    Each memory reference and call carries the source line it was
    generated from and, after HLI import, the id of the HLI item mapped
    onto it (the paper's (IRInsn, RefSpec) association — our instructions
    hold at most one memory reference, so RefSpec is implicit). *)

open Srclang

type reg = int

(** Register class: integer/pointer vs floating point. *)
type rclass = Rint | Rflt

type operand = Reg of reg | Imm of int | Fimm of float

(** Address base of a memory reference. *)
type base =
  | Bsym of Symbol.t  (** statically allocated global *)
  | Breg of reg  (** computed pointer *)
  | Bframe  (** current frame (locals); offset selects the slot *)
  | Bargout  (** outgoing stack-argument area of the current frame *)
  | Bargin  (** incoming stack-argument area (caller's outgoing) *)

type mem = {
  mbase : base;
  moffset : int;  (** constant byte offset *)
  mindex : reg option;  (** optional index register *)
  mscale : int;  (** byte scale applied to the index *)
  msize : int;  (** 4 or 8 bytes *)
  mclass : rclass;  (** class of the value moved *)
}

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt
  | Sle
  | Seq
  | Sne

type falu_op = Fadd | Fsub | Fmul | Fdiv | Fslt | Fsle | Fseq | Fsne

type label = int

type desc =
  | Li of reg * operand  (** load constant / copy operand into reg *)
  | Alu of alu_op * reg * operand * operand
  | Falu of falu_op * reg * operand * operand
      (** comparison variants write an integer 0/1 *)
  | La of reg * Symbol.t  (** address of a global *)
  | Laf of reg * int  (** address of frame slot: fp + offset *)
  | Load of reg * mem
  | Store of mem * operand
  | Cvt_i2f of reg * reg
  | Cvt_f2i of reg * reg
  | Getarg of reg * int  (** fetch register-passed argument [i] at entry *)
  | Call of string * operand list * reg option
      (** register-passed args only; stack args go through [Store]s to
          {!Bargout} slots emitted before the call *)
  | Br_eqz of reg * label
  | Br_nez of reg * label
  | Jmp of label
  | Ret of operand option

type insn = {
  uid : int;
      (** unique within the function.  Ascending in program order among
          a block's memory references, the pairs the speculation checks
          compare; not over every instruction: LICM moves hoisted
          instructions, which keep their loop-body uids, ahead of the
          preheader's terminator, and unroll puts fresh-uid copies
          ahead of the latch's.  Program order is the prefix's block
          order, never uid order. *)
  desc : desc;
  line : int;  (** source line (0 when synthesized) *)
  mutable item : int option;  (** mapped HLI item (memory refs and calls) *)
  mutable spec : bool;
      (** speculative load: the DDG dropped a below-threshold
          store-to-load edge, so this load may execute ahead of a store
          it possibly aliases; a check at the original position recovers
          (re-loads) on a dynamic conflict.  Set by [Ddg.build] under
          [--speculate], always false otherwise *)
}

(* ------------------------------------------------------------------ *)
(* Basic blocks and functions                                          *)
(* ------------------------------------------------------------------ *)

type block = {
  bid : int;  (** block id == its label *)
  mutable insns : insn list;
  mutable succs : int list;
  mutable preds : int list;
}

(** RTL-level view of a loop, recorded during lowering so optimizations
    can correlate blocks with HLI regions. *)
type loop_meta = {
  l_region : int;  (** HLI region id of this loop *)
  l_preheader : int;
  l_header : int;
  l_body_blocks : int list;  (** all blocks strictly inside the loop *)
  l_latch : int;
  l_exit : int;
}

type fn = {
  fname : string;
  params : (Symbol.t * rclass) list;
  ret_class : rclass option;
  mutable blocks : block array;  (** indexed by block id, textual order *)
  entry : int;
  frame_size : int;
  argout_size : int;  (** bytes of outgoing stack-arg area *)
  vreg_count : int;
  vreg_class : rclass array;
  loops : loop_meta list;
}

type program = {
  fns : fn list;
  globals : (Symbol.t * Tast.ginit option) list;
}

let find_fn p name = List.find_opt (fun f -> f.fname = name) p.fns

(* ------------------------------------------------------------------ *)
(* Instruction properties                                              *)
(* ------------------------------------------------------------------ *)

let mem_of_insn i =
  match i.desc with Load (_, m) | Store (m, _) -> Some m | _ -> None

let is_store i = match i.desc with Store _ -> true | _ -> false
let is_load i = match i.desc with Load _ -> true | _ -> false
let is_call i = match i.desc with Call _ -> true | _ -> false

let is_branch i =
  match i.desc with
  | Br_eqz _ | Br_nez _ | Jmp _ | Ret _ -> true
  | _ -> false

let operand_regs = function Reg r -> [ r ] | Imm _ | Fimm _ -> []

let mem_regs m =
  (match m.mbase with Breg r -> [ r ] | Bsym _ | Bframe | Bargout | Bargin -> [])
  @ (match m.mindex with Some r -> [ r ] | None -> [])

(** Registers read by an instruction. *)
let uses i =
  match i.desc with
  | Li (_, op) -> operand_regs op
  | Alu (_, _, a, b) | Falu (_, _, a, b) -> operand_regs a @ operand_regs b
  | La _ | Laf _ | Getarg _ -> []
  | Load (_, m) -> mem_regs m
  | Store (m, v) -> mem_regs m @ operand_regs v
  | Cvt_i2f (_, s) | Cvt_f2i (_, s) -> [ s ]
  | Call (_, args, _) -> List.concat_map operand_regs args
  | Br_eqz (r, _) | Br_nez (r, _) -> [ r ]
  | Jmp _ -> []
  | Ret (Some op) -> operand_regs op
  | Ret None -> []

(** Register written by an instruction, if any. *)
let def i =
  match i.desc with
  | Li (d, _) | Alu (_, d, _, _) | Falu (_, d, _, _) | La (d, _) | Laf (d, _)
  | Load (d, _) | Cvt_i2f (d, _) | Cvt_f2i (d, _) | Getarg (d, _) ->
      Some d
  | Call (_, _, dst) -> dst
  | Store _ | Br_eqz _ | Br_nez _ | Jmp _ | Ret _ -> None

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "r%d" r
  | Imm n -> Fmt.int ppf n
  | Fimm f -> Fmt.float ppf f

let pp_base ppf = function
  | Bsym s -> Symbol.pp ppf s
  | Breg r -> Fmt.pf ppf "(r%d)" r
  | Bframe -> Fmt.string ppf "fp"
  | Bargout -> Fmt.string ppf "argout"
  | Bargin -> Fmt.string ppf "argin"

let pp_mem ppf m =
  Fmt.pf ppf "[%a%+d%s:%d]" pp_base m.mbase m.moffset
    (match m.mindex with
    | Some r -> Fmt.str "+r%d*%d" r m.mscale
    | None -> "")
    m.msize

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Sle -> "sle"
  | Seq -> "seq"
  | Sne -> "sne"

let falu_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fslt -> "fslt"
  | Fsle -> "fsle"
  | Fseq -> "fseq"
  | Fsne -> "fsne"

let pp_insn ppf i =
  let item =
    match i.item with Some n -> Fmt.str " {i%d}" n | None -> ""
  in
  let item = if i.spec then item ^ " {spec}" else item in
  (match i.desc with
  | Li (d, op) -> Fmt.pf ppf "r%d <- %a" d pp_operand op
  | Alu (op, d, a, b) ->
      Fmt.pf ppf "r%d <- %s %a, %a" d (alu_name op) pp_operand a pp_operand b
  | Falu (op, d, a, b) ->
      Fmt.pf ppf "r%d <- %s %a, %a" d (falu_name op) pp_operand a pp_operand b
  | La (d, s) -> Fmt.pf ppf "r%d <- &%a" d Symbol.pp s
  | Laf (d, off) -> Fmt.pf ppf "r%d <- fp%+d" d off
  | Load (d, m) -> Fmt.pf ppf "r%d <- load %a" d pp_mem m
  | Store (m, v) -> Fmt.pf ppf "store %a <- %a" pp_mem m pp_operand v
  | Cvt_i2f (d, s) -> Fmt.pf ppf "r%d <- i2f r%d" d s
  | Cvt_f2i (d, s) -> Fmt.pf ppf "r%d <- f2i r%d" d s
  | Getarg (d, i) -> Fmt.pf ppf "r%d <- arg%d" d i
  | Call (f, args, dst) ->
      Fmt.pf ppf "%scall %s(%a)"
        (match dst with Some d -> Fmt.str "r%d <- " d | None -> "")
        f
        Fmt.(list ~sep:comma pp_operand)
        args
  | Br_eqz (r, l) -> Fmt.pf ppf "beqz r%d, L%d" r l
  | Br_nez (r, l) -> Fmt.pf ppf "bnez r%d, L%d" r l
  | Jmp l -> Fmt.pf ppf "jmp L%d" l
  | Ret (Some op) -> Fmt.pf ppf "ret %a" pp_operand op
  | Ret None -> Fmt.string ppf "ret");
  Fmt.pf ppf "   ; line %d%s" i.line item

let pp_fn ppf f =
  Fmt.pf ppf "@[<v>fn %s (frame %d bytes, %d vregs):@," f.fname f.frame_size
    f.vreg_count;
  Array.iter
    (fun b ->
      Fmt.pf ppf "L%d:  (succs %a)@," b.bid Fmt.(list ~sep:comma int) b.succs;
      List.iter (fun i -> Fmt.pf ppf "  %a@," pp_insn i) b.insns)
    f.blocks;
  Fmt.pf ppf "@]"
