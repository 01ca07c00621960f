(** Lowering: typed AST → RTL.

    This pass is written against the same ordering contract as
    {!Frontir.Memwalk} — for every source line, the memory-reference and
    call instructions appear in the RTL in exactly the order ITEMGEN
    listed the items.  {!Hli_import} relies on that to map items onto
    instructions positionally, and a workload-wide test asserts the two
    walks agree.

    Storage assignment implements the paper's ITEMGEN rules
    (Section 3.1.1): scalar locals and parameters that are never
    address-taken live in virtual (pseudo) registers; globals, arrays and
    address-taken locals live in memory; the first {!Frontir.Memwalk.abi_reg_args}
    arguments travel in registers (spilled at entry when the parameter is
    memory-resident) and the rest through the stack-argument area. *)

open Srclang

(* internal lowering invariants, structured as diagnostics (E0501) *)
let ierr fmt = Diagnostics.error ~code:"E0501" ~phase:Diagnostics.Lower fmt

type storage =
  | Svreg of Rtl.reg
  | Sframe of int  (** frame offset *)
  | Sglobal
  | Sargin of int  (** incoming stack-arg byte offset *)

type env = {
  mutable vreg_classes : Rtl.rclass list;  (** reversed *)
  mutable nvregs : int;
  mutable frame_off : int;
  mutable argout : int;
  mutable uid : int;
  mutable next_label : int;
  storage : (int, storage) Hashtbl.t;  (** symbol id -> storage *)
  (* blocks under construction, in textual order; current block last *)
  mutable done_blocks : (int * Rtl.insn list) list;  (** reversed; insns reversed *)
  mutable cur_label : int;
  mutable cur_insns : Rtl.insn list;  (** reversed *)
  mutable loops : Rtl.loop_meta list;
  mutable next_region : int;
  func_line : int;
}

let rclass_of_type ty =
  match Types.decay ty with
  | Types.Tdouble -> Rtl.Rflt
  | Types.Tint | Types.Tptr _ -> Rtl.Rint
  | Types.Tvoid | Types.Tarray _ -> Rtl.Rint

let fresh_reg env cls =
  let r = env.nvregs in
  env.nvregs <- r + 1;
  env.vreg_classes <- cls :: env.vreg_classes;
  r

let fresh_label env =
  let l = env.next_label in
  env.next_label <- l + 1;
  l

let emit env ?(line = 0) desc =
  let i = { Rtl.uid = env.uid; desc; line; item = None } in
  env.uid <- env.uid + 1;
  env.cur_insns <- i :: env.cur_insns

(* close the current block and start a new one labeled [l] *)
let start_block env l =
  env.done_blocks <- (env.cur_label, env.cur_insns) :: env.done_blocks;
  env.cur_label <- l;
  env.cur_insns <- []

let reg_of env ?(line = 0) (op : Rtl.operand) cls =
  match op with
  | Rtl.Reg r -> r
  | Rtl.Imm _ | Rtl.Fimm _ ->
      let d = fresh_reg env cls in
      emit env ~line (Rtl.Li (d, op));
      d

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type addr = {
  abase : Rtl.base;
  aoff : int;
  aidx : Rtl.reg option;
  ascale : int;
}

let addr_of_storage sym = function
  | Sframe off -> { abase = Rtl.Bframe; aoff = off; aidx = None; ascale = 1 }
  | Sglobal -> { abase = Rtl.Bsym sym; aoff = 0; aidx = None; ascale = 1 }
  | Sargin off -> { abase = Rtl.Bargin; aoff = off; aidx = None; ascale = 1 }
  | Svreg _ -> ierr "addr_of_storage: register-resident symbol"

let mem_of_addr a ~size ~cls : Rtl.mem =
  {
    Rtl.mbase = a.abase;
    moffset = a.aoff;
    mindex = a.aidx;
    mscale = a.ascale;
    msize = size;
    mclass = cls;
  }

(* Materialize an address into a single register (needed when combining
   two index registers). *)
let materialize env ~line a : Rtl.reg =
  let base_reg =
    match a.abase with
    | Rtl.Bsym s ->
        let d = fresh_reg env Rtl.Rint in
        emit env ~line (Rtl.La (d, s));
        d
    | Rtl.Breg r -> r
    | Rtl.Bframe ->
        let d = fresh_reg env Rtl.Rint in
        emit env ~line (Rtl.Laf (d, 0));
        d
    | Rtl.Bargout | Rtl.Bargin ->
        ierr "materialize: ABI slot address"
  in
  let with_off =
    if a.aoff = 0 then base_reg
    else begin
      let d = fresh_reg env Rtl.Rint in
      emit env ~line (Rtl.Alu (Rtl.Add, d, Rtl.Reg base_reg, Rtl.Imm a.aoff));
      d
    end
  in
  match a.aidx with
  | None -> with_off
  | Some ix ->
      let scaled =
        if a.ascale = 1 then ix
        else begin
          let d = fresh_reg env Rtl.Rint in
          emit env ~line (Rtl.Alu (Rtl.Mul, d, Rtl.Reg ix, Rtl.Imm a.ascale));
          d
        end
      in
      let d = fresh_reg env Rtl.Rint in
      emit env ~line (Rtl.Alu (Rtl.Add, d, Rtl.Reg with_off, Rtl.Reg scaled));
      d

let add_index env ~line a (idx_op : Rtl.operand) ~scale =
  match idx_op with
  | Rtl.Imm n -> { a with aoff = a.aoff + (n * scale) }
  | Rtl.Fimm _ -> ierr "add_index: float index"
  | Rtl.Reg r -> (
      match a.aidx with
      | None -> { a with aidx = Some r; ascale = scale }
      | Some _ ->
          (* two index registers: fold the existing address first *)
          let folded = materialize env ~line a in
          { abase = Rtl.Breg folded; aoff = 0; aidx = Some r; ascale = scale })

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let is_memory_lvalue = Frontir.Memwalk.is_memory_lvalue

let alu_of_binop = function
  | Ast.Add -> Rtl.Add
  | Ast.Sub -> Rtl.Sub
  | Ast.Mul -> Rtl.Mul
  | Ast.Div -> Rtl.Div
  | Ast.Mod -> Rtl.Rem
  | Ast.Band -> Rtl.And
  | Ast.Bor -> Rtl.Or
  | Ast.Bxor -> Rtl.Xor
  | Ast.Shl -> Rtl.Shl
  | Ast.Shr -> Rtl.Shr
  | Ast.Lt -> Rtl.Slt
  | Ast.Le -> Rtl.Sle
  | Ast.Eq -> Rtl.Seq
  | Ast.Ne -> Rtl.Sne
  | Ast.Gt | Ast.Ge | Ast.Land | Ast.Lor -> ierr "alu_of_binop: not an integer ALU operator"

let falu_of_binop = function
  | Ast.Add -> Rtl.Fadd
  | Ast.Sub -> Rtl.Fsub
  | Ast.Mul -> Rtl.Fmul
  | Ast.Div -> Rtl.Fdiv
  | Ast.Lt -> Rtl.Fslt
  | Ast.Le -> Rtl.Fsle
  | Ast.Eq -> Rtl.Fseq
  | Ast.Ne -> Rtl.Fsne
  | _ -> ierr "falu_of_binop: not a float ALU operator"

let rec lower_expr env (e : Tast.expr) : Rtl.operand =
  let line = e.Tast.loc.Loc.line in
  match e.Tast.desc with
  | Tast.Const_int n -> Rtl.Imm n
  | Tast.Const_float f -> Rtl.Fimm f
  | Tast.Lval lv ->
      if is_memory_lvalue lv then begin
        let a, size, cls = lower_lvalue_addr env lv in
        let d = fresh_reg env cls in
        emit env ~line:lv.Tast.lloc.Loc.line
          (Rtl.Load (d, mem_of_addr a ~size ~cls));
        Rtl.Reg d
      end
      else begin
        match lv.Tast.ldesc with
        | Tast.Lvar s -> (
            match Hashtbl.find_opt env.storage s.Symbol.id with
            | Some (Svreg r) -> Rtl.Reg r
            | _ -> ierr "lower_expr: unexpected storage")
        | Tast.Lindex _ | Tast.Lderef _ -> assert false
      end
  | Tast.Addr lv ->
      let a, _, _ = lower_lvalue_addr env lv in
      Rtl.Reg (materialize env ~line a)
  | Tast.Binop (Ast.Land, a, b) -> lower_shortcircuit env ~line ~is_and:true a b
  | Tast.Binop (Ast.Lor, a, b) -> lower_shortcircuit env ~line ~is_and:false a b
  | Tast.Binop (op, a, b) -> lower_binop env ~line op a b
  | Tast.Unop (Ast.Neg, a) ->
      let va = lower_expr env a in
      if rclass_of_type e.Tast.ty = Rtl.Rflt then begin
        let d = fresh_reg env Rtl.Rflt in
        emit env ~line (Rtl.Falu (Rtl.Fsub, d, Rtl.Fimm 0.0, va));
        Rtl.Reg d
      end
      else begin
        let d = fresh_reg env Rtl.Rint in
        emit env ~line (Rtl.Alu (Rtl.Sub, d, Rtl.Imm 0, va));
        Rtl.Reg d
      end
  | Tast.Unop (Ast.Lnot, a) ->
      let va = lower_expr env a in
      let va =
        if rclass_of_type a.Tast.ty = Rtl.Rflt then begin
          let d = fresh_reg env Rtl.Rint in
          emit env ~line (Rtl.Falu (Rtl.Fsne, d, va, Rtl.Fimm 0.0));
          Rtl.Reg d
        end
        else va
      in
      let d = fresh_reg env Rtl.Rint in
      emit env ~line (Rtl.Alu (Rtl.Seq, d, va, Rtl.Imm 0));
      Rtl.Reg d
  | Tast.Unop (Ast.Bnot, a) ->
      let va = lower_expr env a in
      let d = fresh_reg env Rtl.Rint in
      emit env ~line (Rtl.Alu (Rtl.Xor, d, va, Rtl.Imm (-1)));
      Rtl.Reg d
  | Tast.Call (name, args) -> lower_call env ~line name args e.Tast.ty
  | Tast.Cast (to_, a) ->
      let va = lower_expr env a in
      let from = a.Tast.ty in
      if Types.equal (Types.decay from) (Types.decay to_) then va
      else begin
        match (Types.decay from, Types.decay to_) with
        | Types.Tint, Types.Tdouble ->
            let s = reg_of env ~line va Rtl.Rint in
            let d = fresh_reg env Rtl.Rflt in
            emit env ~line (Rtl.Cvt_i2f (d, s));
            Rtl.Reg d
        | Types.Tdouble, Types.Tint ->
            let s = reg_of env ~line va Rtl.Rflt in
            let d = fresh_reg env Rtl.Rint in
            emit env ~line (Rtl.Cvt_f2i (d, s));
            Rtl.Reg d
        | _ -> va (* pointer casts are free *)
      end

and lower_binop env ~line op (a : Tast.expr) (b : Tast.expr) : Rtl.operand =
  let va = lower_expr env a in
  let vb = lower_expr env b in
  (* pointer arithmetic scales by element size *)
  match (Types.decay a.Tast.ty, op) with
  | Types.Tptr elem, (Ast.Add | Ast.Sub) when Types.is_arith (Types.decay b.Tast.ty)
    ->
      let k = Types.size_of elem in
      let scaled =
        match vb with
        | Rtl.Imm n -> Rtl.Imm (n * k)
        | _ ->
            let d = fresh_reg env Rtl.Rint in
            emit env ~line (Rtl.Alu (Rtl.Mul, d, vb, Rtl.Imm k));
            Rtl.Reg d
      in
      let d = fresh_reg env Rtl.Rint in
      emit env ~line (Rtl.Alu (alu_of_binop op, d, va, scaled));
      Rtl.Reg d
  | _ -> (
      let fp =
        rclass_of_type a.Tast.ty = Rtl.Rflt || rclass_of_type b.Tast.ty = Rtl.Rflt
      in
      match op with
      | Ast.Gt ->
          (* a > b  ==  b < a *)
          let d = fresh_reg env Rtl.Rint in
          if fp then emit env ~line (Rtl.Falu (Rtl.Fslt, d, vb, va))
          else emit env ~line (Rtl.Alu (Rtl.Slt, d, vb, va));
          Rtl.Reg d
      | Ast.Ge ->
          let d = fresh_reg env Rtl.Rint in
          if fp then emit env ~line (Rtl.Falu (Rtl.Fsle, d, vb, va))
          else emit env ~line (Rtl.Alu (Rtl.Sle, d, vb, va));
          Rtl.Reg d
      | _ ->
          if fp then begin
            let cls =
              match op with
              | Ast.Lt | Ast.Le | Ast.Eq | Ast.Ne -> Rtl.Rint
              | _ -> Rtl.Rflt
            in
            let d = fresh_reg env cls in
            emit env ~line (Rtl.Falu (falu_of_binop op, d, va, vb));
            Rtl.Reg d
          end
          else begin
            let d = fresh_reg env Rtl.Rint in
            emit env ~line (Rtl.Alu (alu_of_binop op, d, va, vb));
            Rtl.Reg d
          end)

and lower_shortcircuit env ~line ~is_and a b : Rtl.operand =
  let d = fresh_reg env Rtl.Rint in
  let l_short = fresh_label env in
  let l_end = fresh_label env in
  let va = lower_expr env a in
  let ra = reg_of env ~line va Rtl.Rint in
  if is_and then emit env ~line (Rtl.Br_eqz (ra, l_short))
  else emit env ~line (Rtl.Br_nez (ra, l_short));
  let l_b = fresh_label env in
  emit env ~line (Rtl.Jmp l_b);
  start_block env l_b;
  let vb = lower_expr env b in
  let rb = reg_of env ~line vb Rtl.Rint in
  emit env ~line (Rtl.Alu (Rtl.Sne, d, Rtl.Reg rb, Rtl.Imm 0));
  emit env ~line (Rtl.Jmp l_end);
  start_block env l_short;
  emit env ~line (Rtl.Li (d, Rtl.Imm (if is_and then 0 else 1)));
  emit env ~line (Rtl.Jmp l_end);
  start_block env l_end;
  Rtl.Reg d

and lower_call env ~line name (args : Tast.expr list) ret_ty : Rtl.operand =
  let vargs = List.map (fun a -> (lower_expr env a, a)) args in
  (* stack stores for args beyond the register-passed ones *)
  List.iteri
    (fun i (v, (arg : Tast.expr)) ->
      if i >= Frontir.Memwalk.abi_reg_args then begin
        let cls = rclass_of_type arg.Tast.ty in
        let size = Types.size_of (Types.decay arg.Tast.ty) in
        let mem =
          {
            Rtl.mbase = Rtl.Bargout;
            moffset = i * 8;
            mindex = None;
            mscale = 1;
            msize = size;
            mclass = cls;
          }
        in
        emit env ~line:arg.Tast.loc.Loc.line (Rtl.Store (mem, v))
      end)
    vargs;
  let reg_args =
    List.filteri (fun i _ -> i < Frontir.Memwalk.abi_reg_args) vargs
    |> List.map fst
  in
  let dst =
    match ret_ty with
    | Types.Tvoid -> None
    | t -> Some (fresh_reg env (rclass_of_type t))
  in
  emit env ~line (Rtl.Call (name, reg_args, dst));
  match dst with Some d -> Rtl.Reg d | None -> Rtl.Imm 0

(* Address (and access size/class) of a memory lvalue.  Emits exactly the
   loads {!Frontir.Memwalk.address_events} predicts, in the same order. *)
and lower_lvalue_addr env (lv : Tast.lvalue) : addr * int * Rtl.rclass =
  let line = lv.Tast.lloc.Loc.line in
  let size = Types.size_of (Types.decay lv.Tast.lty) in
  let cls = rclass_of_type lv.Tast.lty in
  match lv.Tast.ldesc with
  | Tast.Lvar s -> (
      match Hashtbl.find_opt env.storage s.Symbol.id with
      | Some st -> (addr_of_storage s st, size, cls)
      | None ->
          if Symbol.is_global s then (addr_of_storage s Sglobal, size, cls)
          else ierr "lower: no storage for %s" s.Symbol.name)
  | Tast.Lindex (base, idx) ->
      (* the index scale is the full element size — for a multi-dim
         array the element is itself an array (a whole row), which must
         NOT decay to pointer size here *)
      let elem_size =
        match Types.deref base.Tast.lty with
        | Some elem -> Types.size_of elem
        | None -> ierr "lower: subscript of non-indexable"
      in
      let base_addr =
        match base.Tast.lty with
        | Types.Tptr _ ->
            (* pointer value needed: load it if memory-resident *)
            if is_memory_lvalue base then begin
              let a, bsize, bcls = lower_lvalue_addr env base in
              let d = fresh_reg env bcls in
              emit env ~line:base.Tast.lloc.Loc.line
                (Rtl.Load (d, mem_of_addr a ~size:bsize ~cls:bcls));
              { abase = Rtl.Breg d; aoff = 0; aidx = None; ascale = 1 }
            end
            else begin
              match base.Tast.ldesc with
              | Tast.Lvar s -> (
                  match Hashtbl.find_opt env.storage s.Symbol.id with
                  | Some (Svreg r) ->
                      { abase = Rtl.Breg r; aoff = 0; aidx = None; ascale = 1 }
                  | _ -> ierr "lower: pointer storage")
              | _ -> assert false
            end
        | _ ->
            let a, _, _ = lower_lvalue_addr env base in
            a
      in
      let vidx = lower_expr env idx in
      (add_index env ~line base_addr vidx ~scale:elem_size, size, cls)
  | Tast.Lderef e ->
      let v = lower_expr env e in
      let r = reg_of env ~line v Rtl.Rint in
      ({ abase = Rtl.Breg r; aoff = 0; aidx = None; ascale = 1 }, size, cls)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt env (st : Tast.stmt) : unit =
  let line = st.Tast.sloc.Loc.line in
  match st.Tast.sdesc with
  | Tast.Sexpr e -> ignore (lower_expr env e)
  | Tast.Sassign (lv, rhs) ->
      let v = lower_expr env rhs in
      if is_memory_lvalue lv then begin
        let a, size, cls = lower_lvalue_addr env lv in
        emit env ~line (Rtl.Store (mem_of_addr a ~size ~cls, v))
      end
      else begin
        match lv.Tast.ldesc with
        | Tast.Lvar s -> (
            match Hashtbl.find_opt env.storage s.Symbol.id with
            | Some (Svreg r) -> emit env ~line (Rtl.Li (r, v))
            | _ -> ierr "lower: assign storage")
        | _ -> assert false
      end
  | Tast.Sif (cond, then_, else_) ->
      let vc = lower_expr env cond in
      let rc = cond_reg env ~line cond vc in
      let l_else = fresh_label env in
      let l_end = fresh_label env in
      let l_then = fresh_label env in
      emit env ~line (Rtl.Br_eqz (rc, l_else));
      emit env ~line (Rtl.Jmp l_then);
      start_block env l_then;
      List.iter (lower_stmt env) then_;
      emit env ~line (Rtl.Jmp l_end);
      start_block env l_else;
      List.iter (lower_stmt env) else_;
      emit env ~line (Rtl.Jmp l_end);
      start_block env l_end
  | Tast.Swhile (cond, body) ->
      let rid = alloc_region env in
      let l_pre = env.cur_label in
      let l_header = fresh_label env in
      let l_body = fresh_label env in
      let l_exit = fresh_label env in
      emit env ~line (Rtl.Jmp l_header);
      start_block env l_header;
      let vc = lower_expr env cond in
      let rc = cond_reg env ~line cond vc in
      emit env ~line (Rtl.Br_eqz (rc, l_exit));
      emit env ~line (Rtl.Jmp l_body);
      start_block env l_body;
      let body_start = l_body in
      List.iter (lower_stmt env) body;
      emit env ~line (Rtl.Jmp l_header);
      let body_end = env.cur_label in
      start_block env l_exit;
      record_loop env ~rid ~pre:l_pre ~header:l_header ~body_start ~body_end
        ~latch:body_end ~exit_:l_exit
  | Tast.Sfor (init, cond, step, body) ->
      let rid = alloc_region env in
      Option.iter (lower_stmt env) init;
      let l_pre = env.cur_label in
      let l_header = fresh_label env in
      let l_body = fresh_label env in
      let l_exit = fresh_label env in
      emit env ~line (Rtl.Jmp l_header);
      start_block env l_header;
      (match cond with
      | Some c ->
          let vc = lower_expr env c in
          let rc = cond_reg env ~line c vc in
          emit env ~line (Rtl.Br_eqz (rc, l_exit))
      | None -> ());
      emit env ~line (Rtl.Jmp l_body);
      start_block env l_body;
      let body_start = l_body in
      List.iter (lower_stmt env) body;
      Option.iter (lower_stmt env) step;
      emit env ~line (Rtl.Jmp l_header);
      let body_end = env.cur_label in
      start_block env l_exit;
      record_loop env ~rid ~pre:l_pre ~header:l_header ~body_start ~body_end
        ~latch:body_end ~exit_:l_exit
  | Tast.Sreturn e ->
      let v = Option.map (lower_expr env) e in
      emit env ~line (Rtl.Ret v);
      (* dead block for any trailing code *)
      start_block env (fresh_label env)
  | Tast.Sblock body -> List.iter (lower_stmt env) body

and cond_reg env ~line (cond : Tast.expr) (v : Rtl.operand) : Rtl.reg =
  if rclass_of_type cond.Tast.ty = Rtl.Rflt then begin
    let d = fresh_reg env Rtl.Rint in
    emit env ~line (Rtl.Falu (Rtl.Fsne, d, v, Rtl.Fimm 0.0));
    d
  end
  else reg_of env ~line v Rtl.Rint

and alloc_region env =
  let rid = env.next_region in
  env.next_region <- rid + 1;
  rid

and record_loop env ~rid ~pre ~header ~body_start ~body_end ~latch ~exit_ =
  let body_blocks =
    (* labels are allocated monotonically, so the body's blocks are the
       label range [body_start, body_end] minus this loop's own exit
       label (which was allocated before the body was lowered) *)
    List.init (body_end - body_start + 1) (fun k -> body_start + k)
    |> List.filter (fun l -> l <> exit_ && l <> header)
  in
  env.loops <-
    {
      Rtl.l_region = rid;
      l_preheader = pre;
      l_header = header;
      l_body_blocks = body_blocks;
      l_latch = latch;
      l_exit = exit_;
    }
    :: env.loops

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let align8 n = (n + 7) land lnot 7

let lower_fn (f : Tast.func) : Rtl.fn =
  let env =
    {
      vreg_classes = [];
      nvregs = 0;
      frame_off = 0;
      argout = 0;
      uid = 0;
      next_label = 1;
      storage = Hashtbl.create 32;
      done_blocks = [];
      cur_label = 0;
      cur_insns = [];
      loops = [];
      next_region = 2;
      func_line = f.Tast.loc.Loc.line;
    }
  in
  let alloc_frame sym =
    let size = align8 (max 8 (Types.size_of sym.Symbol.ty)) in
    let off = env.frame_off in
    env.frame_off <- off + size;
    Sframe off
  in
  (* parameters *)
  List.iteri
    (fun i p ->
      let cls = rclass_of_type p.Symbol.ty in
      if i < Frontir.Memwalk.abi_reg_args then begin
        if Symbol.memory_resident p then begin
          (* spill the incoming register to the frame (ITEMGEN rule) *)
          let st = alloc_frame p in
          Hashtbl.replace env.storage p.Symbol.id st;
          let tmp = fresh_reg env cls in
          emit env ~line:env.func_line (Rtl.Getarg (tmp, i));
          let a = addr_of_storage p st in
          let size = Types.size_of (Types.decay p.Symbol.ty) in
          emit env ~line:env.func_line
            (Rtl.Store (mem_of_addr a ~size ~cls, Rtl.Reg tmp))
        end
        else begin
          let r = fresh_reg env cls in
          emit env ~line:env.func_line (Rtl.Getarg (r, i));
          Hashtbl.replace env.storage p.Symbol.id (Svreg r)
        end
      end
      else if Symbol.memory_resident p then
        (* used in place from the incoming stack slot *)
        Hashtbl.replace env.storage p.Symbol.id (Sargin (i * 8))
      else begin
        (* promote the stack argument to a pseudo-register *)
        let r = fresh_reg env cls in
        let size = Types.size_of (Types.decay p.Symbol.ty) in
        let mem =
          {
            Rtl.mbase = Rtl.Bargin;
            moffset = i * 8;
            mindex = None;
            mscale = 1;
            msize = size;
            mclass = cls;
          }
        in
        emit env ~line:env.func_line (Rtl.Load (r, mem));
        Hashtbl.replace env.storage p.Symbol.id (Svreg r)
      end)
    f.Tast.params;
  (* locals *)
  List.iter
    (fun l ->
      if Symbol.memory_resident l then
        Hashtbl.replace env.storage l.Symbol.id (alloc_frame l)
      else
        Hashtbl.replace env.storage l.Symbol.id
          (Svreg (fresh_reg env (rclass_of_type l.Symbol.ty))))
    f.Tast.locals;
  (* globals: storage is implicit (Sglobal looked up lazily) — register
     them so Lvar lookups succeed *)
  (* body *)
  List.iter (lower_stmt env) f.Tast.body;
  (* implicit return *)
  emit env ~line:env.func_line
    (Rtl.Ret
       (match f.Tast.ret with
       | Types.Tvoid -> None
       | t when rclass_of_type t = Rtl.Rflt -> Some (Rtl.Fimm 0.0)
       | _ -> Some (Rtl.Imm 0)));
  env.done_blocks <- (env.cur_label, env.cur_insns) :: env.done_blocks;
  (* assemble blocks *)
  let blocks_assoc =
    List.rev_map (fun (l, insns) -> (l, List.rev insns)) env.done_blocks
  in
  let nblocks = env.next_label in
  let blocks =
    Array.init nblocks (fun bid ->
        { Rtl.bid; insns = []; succs = []; preds = [] })
  in
  List.iter
    (fun (l, insns) -> blocks.(l).Rtl.insns <- blocks.(l).Rtl.insns @ insns)
    blocks_assoc;
  (* successor edges from terminators *)
  Array.iter
    (fun (b : Rtl.block) ->
      let succs =
        List.concat_map
          (fun (i : Rtl.insn) ->
            match i.Rtl.desc with
            | Rtl.Br_eqz (_, l) | Rtl.Br_nez (_, l) -> [ l ]
            | Rtl.Jmp l -> [ l ]
            | _ -> [])
          b.Rtl.insns
      in
      b.Rtl.succs <- List.sort_uniq compare succs)
    blocks;
  Array.iter
    (fun (b : Rtl.block) ->
      List.iter
        (fun s ->
          if s < nblocks then
            blocks.(s).Rtl.preds <- b.Rtl.bid :: blocks.(s).Rtl.preds)
        b.Rtl.succs)
    blocks;
  {
    Rtl.fname = f.Tast.name;
    params = List.map (fun p -> (p, rclass_of_type p.Symbol.ty)) f.Tast.params;
    ret_class =
      (match f.Tast.ret with
      | Types.Tvoid -> None
      | t -> Some (rclass_of_type t));
    blocks;
    entry = 0;
    frame_size = align8 env.frame_off;
    argout_size = 8 * 16;
    vreg_count = env.nvregs;
    vreg_class = Array.of_list (List.rev env.vreg_classes);
    loops = List.rev env.loops;
  }

let lower_program (prog : Tast.program) : Rtl.program =
  { Rtl.fns = List.map lower_fn prog.Tast.funcs; globals = prog.Tast.globals }
