(** Decoded form of a lowered {!Backend.Rtl.program}: one flat
    instruction array with every name resolved — global addresses,
    callees (function index or builtin), branch targets (pcs), the
    register class of every operand — plus the per-pc tables the timing
    models read (source instruction, globalized source and destination
    registers).  {!decode} builds it once; {!Exec} runs it any number of
    times (DESIGN.md, "Simulator internals"). *)

open Backend

let global_base = 0x1000

(* ------------------------------------------------------------------ *)
(* Decoded form                                                        *)
(* ------------------------------------------------------------------ *)

(* Operand encodings.  An operand read in integer context is a register
   of the activation when [o >= 0]; otherwise [k = -1 - o] names the
   integer constant [ki.(k / 2)] when [k] is even, and the float
   register [k / 2] truncated to an int (a cross-class read) when [k] is
   odd.  Float context mirrors it with [kf] and integer registers.  A
   destination is a register of the value's own class when [d >= 0],
   else register [-1 - d] of the other class, converted on write.  The
   register classes are static, so which conversion applies is settled
   at decode time. *)

type base = Abs | Breg of int | Frame | Argout | Argin

type mem = {
  base : base;
  off : int;  (** constant offset; for [Abs] it includes the global's address *)
  index : int;  (** index register, or -1 *)
  scale : int;
  size : int;
}

type builtin =
  | Sqrt
  | Fabs
  | Exp
  | Log
  | Sin
  | Cos
  | Pow
  | Abs_int
  | Print_int
  | Print_double
  | Rand
  | Srand

type callee = Fn of int | Builtin of builtin | Unknown of string

type call = {
  callee : callee;
  args : int array;  (** one operand per argument, read in its own class *)
  args_flt : bool array;  (** argument is float-valued *)
  ret_reg : int;  (** destination register, or -1 *)
  ret_flt : bool;  (** destination is a float register *)
}

type insn =
  | Mov_i of int * int  (** int register <- int operand *)
  | Mov_f of int * int  (** float register <- float operand *)
  | Laf of int * int  (** int-valued dst <- fp + offset *)
  | Alu of Rtl.alu_op * int * int * int
  | Falu of Rtl.falu_op * int * int * int
      (** float-valued dst for arithmetic, int-valued for comparisons *)
  | Load_i of int * mem  (** int-valued dst *)
  | Load_f of int * mem  (** float-valued dst *)
  | Store_i of mem * int
  | Store_f of mem * int
  | Cvt_i2f of int * int
  | Cvt_f2i of int * int
  | Call of call
  | Br_eqz of int * int  (** register, target pc *)
  | Br_nez of int * int
  | Jmp of int
  | Ret_i of int
  | Ret_f of int
  | Fall  (** end of a block without a transfer: returns 0; not counted *)
  | Trap of string  (** raises {!Exec.Runtime_error} when reached; not counted *)

type fn = {
  entry : int;  (** pc of the entry block *)
  first : int;  (** pc of the first block *)
  npcs : int;  (** pcs of the function's blocks, [Fall]s included *)
  nregs : int;  (** register slots of an activation *)
  nargs : int;  (** argument slots after the registers *)
  frame_size : int;
}

(** A decoded program.  [insns], [src], [dst] and the [srcs] slices are
    indexed by pc; the timing models precompute their latency tables
    from [src] and read [srcs]/[dst] directly.  Register ids in
    [srcs]/[dst] are globalized (per-function base added) so models
    need no notion of activations; recursion folds onto the same ids,
    which only makes the timing marginally conservative. *)
type code = {
  insns : insn array;
  src : Rtl.insn array;  (** source instruction of each pc *)
  srcs_start : int array;
      (** pc -> first index into [srcs]; [srcs_start.(pc + 1)] ends it *)
  srcs : int array;  (** globalized source registers *)
  dst : int array;  (** globalized destination register, or -1 *)
  bstart : int array;  (** pc -> pc of its block's first instruction *)
  global_regs : int;  (** every globalized register id is below this *)
  fns : fn array;
  main : int;  (** index of [main], or -1 *)
  ki : int array;  (** integer constants *)
  kf : float array;  (** float constants *)
  inits : (int * Srclang.Tast.ginit) list;  (** global initializers by address *)
  globals_end : int;  (** first address above the globals; no frame reaches below it *)
}

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

let layout_globals (prog : Rtl.program) =
  let tbl = Hashtbl.create 64 in
  let next = ref global_base in
  let inits =
    List.filter_map
      (fun ((s : Srclang.Symbol.t), init) ->
        let size = max 8 (Srclang.Types.size_of s.Srclang.Symbol.ty) in
        let addr = !next in
        next := addr + ((size + 7) land lnot 7);
        Hashtbl.replace tbl s.Srclang.Symbol.id addr;
        Option.map (fun i -> (addr, i)) init)
      prog.Rtl.globals
  in
  (tbl, inits, !next)

let builtin_of_name = function
  | "sqrt" -> Some Sqrt
  | "fabs" -> Some Fabs
  | "exp" -> Some Exp
  | "log" -> Some Log
  | "sin" -> Some Sin
  | "cos" -> Some Cos
  | "pow" -> Some Pow
  | "abs" -> Some Abs_int
  | "print_int" -> Some Print_int
  | "print_double" -> Some Print_double
  | "rand" -> Some Rand
  | "srand" -> Some Srand
  | _ -> None

exception Undecodable of string

(* stand-in source instruction of the synthetic [Fall]/[Trap] pcs *)
let no_insn = { Rtl.uid = -1; desc = Rtl.Ret None; line = 0; item = None }

(** Decode [prog] once; the result serves any number of runs. *)
let decode (prog : Rtl.program) : code =
  let rfns = Array.of_list prog.Rtl.fns in
  let nfns = Array.length rfns in
  (* callees resolve to the first function of a name, as a by-name
     lookup would; the globalized register base of a name is that of
     its last function *)
  let by_name = Hashtbl.create 16 in
  for k = nfns - 1 downto 0 do
    Hashtbl.replace by_name rfns.(k).Rtl.fname k
  done;
  let base_of_name = Hashtbl.create 16 in
  let total = ref 0 in
  Array.iter
    (fun (f : Rtl.fn) ->
      Hashtbl.replace base_of_name f.Rtl.fname !total;
      total := !total + f.Rtl.vreg_count)
    rfns;
  let addr_of, inits, globals_end = layout_globals prog in
  (* argument slots: the most arguments any call site passes a callee *)
  let nargs = Array.make nfns 0 in
  Array.iter
    (fun (f : Rtl.fn) ->
      Array.iter
        (fun (b : Rtl.block) ->
          List.iter
            (fun (i : Rtl.insn) ->
              match i.Rtl.desc with
              | Rtl.Call (name, args, _) ->
                  Option.iter
                    (fun g -> nargs.(g) <- max nargs.(g) (List.length args))
                    (Hashtbl.find_opt by_name name)
              | _ -> ())
            b.Rtl.insns)
        f.Rtl.blocks)
    rfns;
  let ki = ref [] and nki = ref 0 and kf = ref [] and nkf = ref 0 in
  let const_i n =
    ki := n :: !ki;
    incr nki;
    -1 - (2 * (!nki - 1))
  in
  let const_f x =
    kf := x :: !kf;
    incr nkf;
    -1 - (2 * (!nkf - 1))
  in
  let cross r = -1 - ((2 * r) + 1) in
  (* pcs: each function's blocks in order, each block followed by a
     [Fall]; one shared [Trap] at the very end for bad branch targets *)
  let block_pc = Array.make nfns [||] in
  let n = ref 0 in
  Array.iteri
    (fun k (f : Rtl.fn) ->
      block_pc.(k) <-
        Array.map
          (fun (b : Rtl.block) ->
            let pc = !n in
            n := !n + List.length b.Rtl.insns + 1;
            pc)
          f.Rtl.blocks)
    rfns;
  let bad_target = !n in
  let npc = !n + 1 in
  let bstart = Array.init npc Fun.id in
  Array.iteri
    (fun k (f : Rtl.fn) ->
      Array.iteri
        (fun b (blk : Rtl.block) ->
          let pc = block_pc.(k).(b) in
          Array.fill bstart pc (List.length blk.Rtl.insns + 1) pc)
        f.Rtl.blocks)
    rfns;
  let insns = Array.make npc (Trap "no such block") in
  let src = Array.make npc no_insn in
  let srcs_l = Array.make npc [] and dst = Array.make npc (-1) in
  let fns =
    Array.mapi
      (fun k (f : Rtl.fn) ->
        let cls = f.Rtl.vreg_class in
        let nregs = max 1 f.Rtl.vreg_count in
        let rbase = Hashtbl.find base_of_name f.Rtl.fname in
        let reg r =
          if r < 0 || r >= f.Rtl.vreg_count || r >= Array.length cls then
            raise (Undecodable "register out of range");
          r
        in
        let is_flt r = cls.(reg r) = Rtl.Rflt in
        let iop = function
          | Rtl.Imm n -> const_i n
          | Rtl.Fimm x -> const_i (int_of_float x)
          | Rtl.Reg r -> if is_flt r then cross r else r
        in
        let fop = function
          | Rtl.Imm n -> const_f (float_of_int n)
          | Rtl.Fimm x -> const_f x
          | Rtl.Reg r -> if is_flt r then r else cross r
        in
        let flt_valued = function
          | Rtl.Imm _ -> false
          | Rtl.Fimm _ -> true
          | Rtl.Reg r -> is_flt r
        in
        (* destinations of int- / float-valued results *)
        let idst d = if is_flt d then -1 - d else d in
        let fdst d = if is_flt d then d else -1 - d in
        let target l =
          if l >= 0 && l < Array.length block_pc.(k) then block_pc.(k).(l)
          else bad_target
        in
        let mem (m : Rtl.mem) =
          let base, off =
            match m.Rtl.mbase with
            | Rtl.Bsym s -> (
                match Hashtbl.find_opt addr_of s.Srclang.Symbol.id with
                | Some a -> (Abs, a + m.Rtl.moffset)
                | None ->
                    let name = s.Srclang.Symbol.name in
                    raise (Undecodable ("no address for global " ^ name)))
            | Rtl.Breg r -> (Breg (reg r), m.Rtl.moffset)
            | Rtl.Bframe -> (Frame, m.Rtl.moffset)
            | Rtl.Bargout -> (Argout, m.Rtl.moffset)
            | Rtl.Bargin -> (Argin, m.Rtl.moffset)
          in
          {
            base;
            off;
            index = (match m.Rtl.mindex with Some r -> reg r | None -> -1);
            scale = m.Rtl.mscale;
            size = m.Rtl.msize;
          }
        in
        let mov d op = if is_flt d then Mov_f (d, fop op) else Mov_i (d, iop op) in
        let decode_insn (i : Rtl.insn) =
          match i.Rtl.desc with
          | Rtl.Li (d, op) -> mov d op
          | Rtl.Alu (op, d, a, b) -> Alu (op, idst d, iop a, iop b)
          | Rtl.Falu (((Rtl.Fadd | Rtl.Fsub | Rtl.Fmul | Rtl.Fdiv) as op), d, a, b) ->
              Falu (op, fdst d, fop a, fop b)
          | Rtl.Falu (op, d, a, b) -> Falu (op, idst d, fop a, fop b)
          | Rtl.La (d, s) -> (
              match Hashtbl.find_opt addr_of s.Srclang.Symbol.id with
              | Some a -> mov d (Rtl.Imm a)
              | None -> raise (Undecodable "unallocated global"))
          | Rtl.Laf (d, off) -> Laf (idst d, off)
          | Rtl.Load (d, m) ->
              if m.Rtl.mclass = Rtl.Rint then Load_i (idst d, mem m)
              else Load_f (fdst d, mem m)
          | Rtl.Store (m, v) ->
              if m.Rtl.mclass = Rtl.Rint then Store_i (mem m, iop v)
              else Store_f (mem m, fop v)
          | Rtl.Cvt_i2f (d, s) -> Cvt_i2f (reg d, reg s)
          | Rtl.Cvt_f2i (d, s) -> Cvt_f2i (reg d, reg s)
          | Rtl.Getarg (_, a) when a < 0 -> raise (Undecodable "bad argument index")
          | Rtl.Getarg (d, a) ->
              (* argument slots hold each value in both classes *)
              if a < nargs.(k) then
                if is_flt d then Mov_f (d, nregs + a) else Mov_i (d, nregs + a)
              else mov d (Rtl.Imm 0)
          | Rtl.Call (name, ops, dst) ->
              let callee =
                match Hashtbl.find_opt by_name name with
                | Some g -> Fn g
                | None -> (
                    match builtin_of_name name with
                    | Some b -> Builtin b
                    | None -> Unknown name)
              in
              let ops = Array.of_list ops in
              Call
                {
                  callee;
                  args_flt = Array.map flt_valued ops;
                  args = Array.map (fun o -> if flt_valued o then fop o else iop o) ops;
                  ret_reg = (match dst with Some d -> reg d | None -> -1);
                  ret_flt = (match dst with Some d -> is_flt d | None -> false);
                }
          | Rtl.Br_eqz (r, l) -> Br_eqz (reg r, target l)
          | Rtl.Br_nez (r, l) -> Br_nez (reg r, target l)
          | Rtl.Jmp l -> Jmp (target l)
          | Rtl.Ret None -> Ret_i (const_i 0)
          | Rtl.Ret (Some op) -> if flt_valued op then Ret_f (fop op) else Ret_i (iop op)
        in
        Array.iteri
          (fun b (blk : Rtl.block) ->
            List.iteri
              (fun j (i : Rtl.insn) ->
                let pc = block_pc.(k).(b) + j in
                src.(pc) <- i;
                match decode_insn i with
                | d ->
                    insns.(pc) <- d;
                    srcs_l.(pc) <- List.map (fun r -> rbase + r) (Rtl.uses i);
                    dst.(pc) <- (match Rtl.def i with Some r -> rbase + r | None -> -1)
                | exception Undecodable msg -> insns.(pc) <- Trap msg)
              blk.Rtl.insns;
            insns.(block_pc.(k).(b) + List.length blk.Rtl.insns) <- Fall)
          f.Rtl.blocks;
        let first = if Array.length block_pc.(k) > 0 then block_pc.(k).(0) else bad_target in
        {
          entry =
            (if f.Rtl.entry >= 0 && f.Rtl.entry < Array.length block_pc.(k) then
               block_pc.(k).(f.Rtl.entry)
             else bad_target);
          first;
          npcs =
            Array.fold_left (fun n (b : Rtl.block) -> n + List.length b.Rtl.insns + 1) 0 f.Rtl.blocks;
          nregs;
          nargs = nargs.(k);
          frame_size = f.Rtl.frame_size;
        })
      rfns
  in
  let srcs_start = Array.make (npc + 1) 0 in
  Array.iteri (fun pc l -> srcs_start.(pc + 1) <- srcs_start.(pc) + List.length l) srcs_l;
  let srcs = Array.of_list (List.concat (Array.to_list srcs_l)) in
  let global_regs = Array.fold_left (fun n r -> max n (r + 1)) !total srcs in
  let global_regs = Array.fold_left (fun n r -> max n (r + 1)) global_regs dst in
  {
    insns;
    src;
    srcs_start;
    srcs;
    dst;
    bstart;
    global_regs;
    fns;
    main = (match Hashtbl.find_opt by_name "main" with Some k -> k | None -> -1);
    ki = Array.of_list (List.rev !ki);
    kf = Array.of_list (List.rev !kf);
    inits;
    globals_end;
  }
