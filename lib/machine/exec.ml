(** Execution-driven RTL simulator core.

    Runs a lowered {!Backend.Rtl.program} against a flat byte-addressed
    memory, calling a hook on every executed instruction — the timing
    models ({!Inorder}, {!Ooo}) consume that dynamic stream on the fly,
    so no trace is materialized.

    The program is first decoded ({!decode}) into one flat instruction
    array with every name resolved: global addresses, callees (function
    index or builtin), branch targets (pcs), the register class of every
    operand, and the globalized source/destination registers the timing
    models read.  Execution is then a pc loop over unboxed [int array] /
    [float array] register stacks; nothing is allocated per executed
    instruction (DESIGN.md, "Simulator internals").

    Memory layout: globals are placed from [global_base] upward; each
    activation gets a frame below the previous one (stack grows down),
    with its 128-byte outgoing-argument area directly below the frame
    base, shared with the callee's incoming-argument view. *)

open Backend

exception Runtime_error of string

exception Out_of_fuel

let mem_size = 32 * 1024 * 1024

let global_base = 0x1000

let argout_bytes = 128

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
  uid : int;  (** source uid: speculation checks compare program order *)
  spec : bool;  (** speculative load (logged for the store checks) *)
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
  | Trap of string  (** raises {!Runtime_error} when reached; not counted *)

type fn = {
  entry : int;  (** pc of the entry block *)
  nregs : int;  (** register slots of an activation *)
  nargs : int;  (** argument slots after the registers *)
  frame_size : int;
  has_spec : bool;  (** contains speculative loads *)
}

(** A decoded program.  [insns], [src], [dst] and the [srcs] slices are
    indexed by pc; the timing models precompute their own per-pc tables
    from [src] and read [srcs]/[dst] directly. *)
type code = {
  insns : insn array;
  src : Rtl.insn array;  (** source instruction of each pc *)
  srcs_start : int array;
      (** pc -> first index into [srcs]; [srcs_start.(pc + 1)] ends it *)
  srcs : int array;  (** globalized source registers *)
  dst : int array;  (** globalized destination register, or -1 *)
  global_regs : int;  (** every globalized register id is below this *)
  fns : fn array;
  main : int;  (** index of [main], or -1 *)
  ki : int array;  (** integer constants *)
  kf : float array;  (** float constants *)
  inits : (int * Srclang.Tast.ginit) list;  (** global initializers by address *)
}

(** One executed instruction, as seen by a timing model: [d_pc] indexes
    the {!code} tables.  A run passes the {e same} record to every hook
    call, overwriting its fields in place, so a hook must not keep it
    (or rely on its contents) after returning.  Register ids in
    [code.srcs]/[code.dst] are globalized (per-function base added) so
    models need no notion of activations; recursion folds onto the same
    ids, which only makes the timing marginally conservative. *)
type dyn = {
  mutable d_pc : int;
  mutable d_addr : int;  (** effective address for loads/stores, else 0 *)
  mutable d_taken : bool;  (** control transfer actually redirected *)
  mutable d_misspec : int;
      (** speculative loads this store collided with (re-loads the
          recovery performed here); 0 everywhere else.  Timing models
          charge the misspeculation penalty off this. *)
}

type result = {
  ret : int;
  output : string;
  dyn_count : int;  (** executed instructions *)
  misspec : int;  (** misspeculation recoveries performed *)
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
  (tbl, inits)

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
let no_insn = { Rtl.uid = -1; desc = Rtl.Ret None; line = 0; item = None; spec = false }

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
  let addr_of, inits = layout_globals prog in
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
        let mem (m : Rtl.mem) (i : Rtl.insn) =
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
            uid = i.Rtl.uid;
            spec = i.Rtl.spec;
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
              if m.Rtl.mclass = Rtl.Rint then Load_i (idst d, mem m i)
              else Load_f (fdst d, mem m i)
          | Rtl.Store (m, v) ->
              if m.Rtl.mclass = Rtl.Rint then Store_i (mem m i, iop v)
              else Store_f (mem m i, fop v)
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
        let has_spec = ref false in
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
                    dst.(pc) <- (match Rtl.def i with Some r -> rbase + r | None -> -1);
                    if Rtl.is_load i && i.Rtl.spec then has_spec := true
                | exception Undecodable msg -> insns.(pc) <- Trap msg)
              blk.Rtl.insns;
            insns.(block_pc.(k).(b) + List.length blk.Rtl.insns) <- Fall)
          f.Rtl.blocks;
        {
          entry =
            (if f.Rtl.entry >= 0 && f.Rtl.entry < Array.length block_pc.(k) then
               block_pc.(k).(f.Rtl.entry)
             else bad_target);
          nregs;
          nargs = nargs.(k);
          frame_size = f.Rtl.frame_size;
          has_spec = !has_spec;
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
    global_regs;
    fns;
    main = (match Hashtbl.find_opt by_name "main" with Some k -> k | None -> -1);
    ki = Array.of_list (List.rev !ki);
    kf = Array.of_list (List.rev !kf);
    inits;
  }

(* ------------------------------------------------------------------ *)
(* Memory image                                                        *)
(* ------------------------------------------------------------------ *)

(* One image per domain, zeroed again at the start of every run.  Runs
   on one domain must therefore not overlap: a hook may not start
   another run, nor may two threads of one domain simulate at once. *)
let image_key = Domain.DLS.new_key (fun () -> Bytes.create mem_size)

let fresh_image () =
  let m = Domain.DLS.get image_key in
  Bytes.fill m 0 mem_size '\000';
  m

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  code : code;
  mem : Bytes.t;
  out : Buffer.t;
  mutable ir : int array;  (** integer register stack *)
  mutable fr : float array;  (** float register stack, same slots *)
  mutable ret_i : int;  (** returned value, integer view *)
  ret_f : float array;  (** returned value, float view (one slot) *)
  mutable rand_state : int;
  limit : int;  (** instruction budget ([max_int]: unlimited) *)
  mutable executed : int;
  mutable misspec : int;  (** misspeculation recoveries across the run *)
  hook : dyn -> unit;
  dyn : dyn;
  mutable specs : int array;
      (** the speculation log, [spec_stride] ints per entry: raw
          destination register, load uid, captured address, size,
          1 if the load moves a float.  Each activation owns the
          entries from its base to [spec_top]. *)
  mutable spec_top : int;
}

let spec_stride = 5

let out_of_range addr =
  raise (Runtime_error (Printf.sprintf "address out of range: 0x%x" addr))

let[@inline] load_int st addr =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  Int32.to_int (Bytes.get_int32_le st.mem addr)

let[@inline] store_int st addr v =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  Bytes.set_int32_le st.mem addr (Int32.of_int v)

let[@inline] load_flt st addr =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  Int64.float_of_bits (Bytes.get_int64_le st.mem addr)

let[@inline] store_flt st addr v =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  Bytes.set_int64_le st.mem addr (Int64.bits_of_float v)

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

let[@inline] raw d = if d >= 0 then d else -1 - d

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

let[@inline] emit st pc addr taken misspec =
  (* check before counting: with [fuel = n] exactly [n] instructions
     execute (and reach the hook) before the n+1st raises *)
  if st.executed >= st.limit then raise Out_of_fuel;
  st.executed <- st.executed + 1;
  let d = st.dyn in
  d.d_pc <- pc;
  d.d_addr <- addr;
  d.d_taken <- taken;
  d.d_misspec <- misspec;
  st.hook d

(* Registers hold a dead speculative value once redefined: drop the
   activation's log entry for [r] (there is at most one). *)
let prune st sbase r =
  let s = st.specs in
  let rec go e =
    if e < st.spec_top then
      if s.(e) = r then begin
        let last = st.spec_top - spec_stride in
        Array.blit s last s e spec_stride;
        st.spec_top <- last
      end
      else go (e + spec_stride)
  in
  go sbase

let log_spec st r (m : mem) addr ~flt =
  if st.spec_top + spec_stride > Array.length st.specs then begin
    let bigger = Array.make (2 * Array.length st.specs) 0 in
    Array.blit st.specs 0 bigger 0 st.spec_top;
    st.specs <- bigger
  end;
  let s = st.specs and e = st.spec_top in
  s.(e) <- r;
  s.(e + 1) <- m.uid;
  s.(e + 2) <- addr;
  s.(e + 3) <- m.size;
  s.(e + 4) <- (if flt then 1 else 0);
  st.spec_top <- e + spec_stride

(* The check of every speculative load hoisted above this store
   (originally-later loads only: uid order is original program order)
   fires on an address overlap — recovery re-executes the load.
   Returns the number of recoveries. *)
let check_specs st sbase rb (m : mem) addr =
  let s = st.specs and n = ref 0 in
  let e = ref sbase in
  while !e < st.spec_top do
    let r = s.(!e) and a0 = s.(!e + 2) in
    if s.(!e + 1) > m.uid && a0 < addr + m.size && addr < a0 + s.(!e + 3) then begin
      incr n;
      if s.(!e + 4) = 1 then fr_set st (rb + r) (load_flt st a0)
      else ir_set st (rb + r) (load_int st a0)
    end;
    e := !e + spec_stride
  done;
  st.misspec <- st.misspec + !n;
  !n

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
  if fp - argout_bytes < global_base then raise (Runtime_error "stack overflow");
  let code = st.code.insns in
  let spec = f.has_spec in
  let sbase = st.spec_top in
  let pc = ref f.entry in
  while !pc >= 0 do
    let here = !pc in
    pc := here + 1;
    match Array.unsafe_get code here with
    | Mov_i (d, o) ->
        if spec then prune st sbase d;
        ir_set st (rb + d) (iget st rb o);
        emit st here 0 false 0
    | Mov_f (d, o) ->
        if spec then prune st sbase d;
        fr_set st (rb + d) (fget st rb o);
        emit st here 0 false 0
    | Laf (d, off) ->
        if spec then prune st sbase (raw d);
        iset st rb d (fp + off);
        emit st here 0 false 0
    | Alu (op, d, a, b) ->
        let v = alu op (iget st rb a) (iget st rb b) in
        if spec then prune st sbase (raw d);
        iset st rb d v;
        emit st here 0 false 0
    | Falu (op, d, a, b) ->
        if spec then prune st sbase (raw d);
        falu st rb op d (fget st rb a) (fget st rb b);
        emit st here 0 false 0
    | Load_i (d, m) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        let v = load_int st addr in
        if spec then prune st sbase (raw d);
        iset st rb d v;
        emit st here addr false 0;
        if m.spec then log_spec st (raw d) m addr ~flt:false
    | Load_f (d, m) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        let x = load_flt st addr in
        if spec then prune st sbase (raw d);
        fset st rb d x;
        emit st here addr false 0;
        if m.spec then log_spec st (raw d) m addr ~flt:true
    | Store_i (m, o) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        store_int st addr (iget st rb o);
        let n = if st.spec_top > sbase then check_specs st sbase rb m addr else 0 in
        emit st here addr false n
    | Store_f (m, o) ->
        let addr = addr_of st ~rb ~fp ~sp m in
        store_flt st addr (fget st rb o);
        let n = if st.spec_top > sbase then check_specs st sbase rb m addr else 0 in
        emit st here addr false n
    | Cvt_i2f (d, s) ->
        if spec then prune st sbase d;
        fr_set st (rb + d) (float_of_int (ir_get st (rb + s)));
        emit st here 0 false 0
    | Cvt_f2i (d, s) ->
        if spec then prune st sbase d;
        ir_set st (rb + d) (int_of_float (fr_get st (rb + s)));
        emit st here 0 false 0
    | Call c ->
        call st f c ~here ~fp ~rb;
        if c.ret_reg >= 0 then begin
          if spec then prune st sbase c.ret_reg;
          if c.ret_flt then fr_set st (rb + c.ret_reg) st.ret_f.(0)
          else ir_set st (rb + c.ret_reg) st.ret_i
        end
    | Br_eqz (r, t) ->
        let taken = ir_get st (rb + r) = 0 in
        emit st here 0 taken 0;
        if taken then begin
          (* speculation never crosses a block: the DDG that dropped
             the edges is block-local *)
          st.spec_top <- sbase;
          pc := t
        end
    | Br_nez (r, t) ->
        let taken = ir_get st (rb + r) <> 0 in
        emit st here 0 taken 0;
        if taken then begin
          st.spec_top <- sbase;
          pc := t
        end
    | Jmp t ->
        emit st here 0 true 0;
        st.spec_top <- sbase;
        pc := t
    | Ret_i o ->
        emit st here 0 true 0;
        ret_int st (iget st rb o);
        pc := -1
    | Ret_f o ->
        emit st here 0 true 0;
        ret_flt st (fget st rb o);
        pc := -1
    | Fall ->
        ret_int st 0;
        pc := -1
    | Trap msg -> raise (Runtime_error msg)
  done;
  st.spec_top <- sbase

(* Arguments are evaluated, the call counted, then the callee runs.  The
   arguments go just above the caller's window: into a callee's argument
   slots, or scratch slots for a builtin.  Each slot holds the value in
   both classes, so reading a parameter needs no conversion. *)
and call st (f : fn) c ~here ~fp ~rb =
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
  emit st here 0 false 0;
  match c.callee with
  | Fn g -> exec_fn st st.code.fns.(g) ~sp:(fp - argout_bytes) ~rb:rb'
  | Builtin b -> exec_builtin st b ~a0 ~nargs:(Array.length args)
  | Unknown name -> raise (Runtime_error ("unknown builtin " ^ name))

(** Run a decoded program's [main].  Raises {!Runtime_error} for bad
    programs and {!Out_of_fuel} when the instruction budget is
    exhausted — exactly [fuel] instructions execute before the budget
    trips, and [fuel = 0] (or negative) means unlimited.  [hook] sees
    every executed instruction; see {!dyn} for what it may keep. *)
let run_code ?(fuel = 400_000_000) ?(hook = fun (_ : dyn) -> ()) (code : code) :
    result =
  if code.main < 0 then raise (Runtime_error "no main function");
  let mem = fresh_image () in
  List.iter
    (fun (addr, init) ->
      match init with
      | Srclang.Tast.Ginit_int n -> Bytes.set_int32_le mem addr (Int32.of_int n)
      | Srclang.Tast.Ginit_float x -> Bytes.set_int64_le mem addr (Int64.bits_of_float x))
    code.inits;
  let main = code.fns.(code.main) in
  let st =
    {
      code;
      mem;
      out = Buffer.create 256;
      ir = Array.make 4096 0;
      fr = Array.make 4096 0.0;
      ret_i = 0;
      ret_f = [| 0.0 |];
      rand_state = 123456789;
      limit = (if fuel > 0 then fuel else max_int);
      executed = 0;
      misspec = 0;
      hook;
      dyn = { d_pc = 0; d_addr = 0; d_taken = false; d_misspec = 0 };
      specs = Array.make (8 * spec_stride) 0;
      spec_top = 0;
    }
  in
  reserve st (main.nregs + main.nargs);
  exec_fn st main ~sp:(mem_size - 64) ~rb:0;
  {
    ret = st.ret_i;
    output = Buffer.contents st.out;
    dyn_count = st.executed;
    misspec = st.misspec;
  }

(** Decode and run [prog] (see {!run_code}). *)
let run ?fuel ?hook (prog : Rtl.program) : result = run_code ?fuel ?hook (decode prog)
