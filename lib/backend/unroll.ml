(** Loop unrolling with HLI table maintenance (paper Figure 6).

    Unrolls innermost counted loops whose trip count is a compile-time
    constant divisible by the factor, by duplicating the body with
    renamed temporaries and rewriting induction-variable uses to
    [iv + k*step] per copy.  The duplicated memory references receive
    fresh HLI items via {!Hli_core.Maintain.unroll}, which also remaps
    the loop's LCDD table: a distance-[d] dependence lands [d] copies
    over, either inside the unrolled body (becoming a same-iteration
    alias) or in a later unrolled iteration at distance
    [(i + d) / factor]. *)

open Rtl

type stats = { mutable unrolled : int; mutable copies_made : int }

let fresh_stats () = { unrolled = 0; copies_made = 0 }

(* Recognize the canonical lowered for-loop shape:
   header:  cond-insns; beqz r, exit; jmp body
   body:    ... ; iv-update; jmp header            (single body block)
   with iv-update being [d <- add iv, Imm s] followed by [iv <- d]. *)
type candidate = {
  c_loop : loop_meta;
  c_body : int;
  c_iv : reg;
  c_step : int;
  c_trip : int;
}

let find_iv_update (insns : insn list) : (reg * int * int * int) option =
  (* returns (iv, step, uid of add, uid of move) *)
  let rec scan = function
    | ({ desc = Alu (Add, d, Reg iv, Imm s); uid = u1; _ } : insn)
      :: { desc = Li (iv2, Reg d2); uid = u2; _ }
      :: rest
      when iv = iv2 && d = d2 -> (
        (* must be the last update before the back-jump *)
        match rest with
        | [ { desc = Jmp _; _ } ] -> Some (iv, s, u1, u2)
        | _ -> scan rest)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan insns

(* constant trip count from header shape:
   [t <- slt iv, Imm n; beqz t, exit] with iv starting at a constant set
   in the preheader: [iv <- Imm lo]. *)
let constant_trip (fn : fn) (l : loop_meta) (iv : reg) (step : int) : int option
    =
  if step <= 0 then None
  else begin
    let header = fn.blocks.(l.l_header).insns in
    let bound =
      List.find_map
        (fun (i : insn) ->
          match i.desc with
          | Alu (Slt, t, Reg r, Imm n) when r = iv ->
              (* ensure t feeds the beqz *)
              if
                List.exists
                  (fun (j : insn) ->
                    match j.desc with Br_eqz (tb, _) -> tb = t | _ -> false)
                  header
              then Some n
              else None
          | _ -> None)
        header
    in
    let lower =
      List.find_map
        (fun (i : insn) ->
          match i.desc with Li (r, Imm v) when r = iv -> Some v | _ -> None)
        (List.rev fn.blocks.(l.l_preheader).insns)
    in
    match (bound, lower) with
    | Some n, Some lo when n > lo -> Some ((n - lo + step - 1) / step)
    | _ -> None
  end

let candidates (fn : fn) : candidate list =
  List.filter_map
    (fun l ->
      match l.l_body_blocks with
      | [ b ]
        when b = l.l_latch && b < Array.length fn.blocks
             && not
                  (List.exists
                     (fun (i : insn) -> is_call i)
                     fn.blocks.(b).insns) -> (
          match find_iv_update fn.blocks.(b).insns with
          | Some (iv, step, _, _) -> (
              match constant_trip fn l iv step with
              | Some trip when trip >= 2 ->
                  Some { c_loop = l; c_body = b; c_iv = iv; c_step = step; c_trip = trip }
              | _ -> None)
          | None -> None)
      | _ -> None)
    fn.loops

(* Register classes of [fn] widened to [nregs] registers: the lowering's
   classes, then three sweeps over the definitions (propagating through
   copies) that classify the registers the copies added.  The sweeps
   re-infer every defined register, so they also mark an FP comparison's
   integer result Rflt where lowering said Rint (048.ora's trace_ray has
   one).  They are kept as they are so unrolled programs simulate as
   before. *)
let widened_classes (fn : fn) nregs =
  let classes = Array.make nregs Rint in
  Array.blit fn.vreg_class 0 classes 0 fn.vreg_count;
  for _pass = 1 to 3 do
    Array.iter
      (fun b ->
        List.iter
          (fun (i : insn) ->
            match (i.desc, def i) with
            | (Falu _ | Cvt_i2f _), Some d -> classes.(d) <- Rflt
            | Cvt_f2i _, Some d -> classes.(d) <- Rint
            | Load (_, m), Some d -> classes.(d) <- m.mclass
            | Li (_, Fimm _), Some d -> classes.(d) <- Rflt
            | Li (_, Reg s), Some d -> classes.(d) <- classes.(s)
            | Alu _, Some d -> classes.(d) <- Rint
            | _ -> ())
          b.insns)
      fn.blocks
  done;
  classes

(** Unroll every eligible innermost loop of [fn] by [factor], editing
    its blocks in place.  Only loops whose trip count divides evenly are
    transformed (no preconditioning loop is emitted).  Returns [fn] with
    register tables widened to the registers the copies added (the
    record fields are immutable; [fn] itself when nothing was unrolled)
    and statistics; [hli]'s session keeps the HLI consistent and
    supplies fresh item ids for the duplicated references. *)
let run_fn ?hli ~factor (fn : fn) : fn * stats =
  let stats = fresh_stats () in
  let next_uid = ref 0 and next_reg = ref fn.vreg_count in
  let fresh r =
    let v = !r in
    incr r;
    v
  in
  if factor >= 2 then
    List.iter
      (fun c ->
        if c.c_trip mod factor = 0 then begin
          let body = fn.blocks.(c.c_body) in
          match find_iv_update body.insns with
          | None -> ()
          | Some (iv, step, uid_add, uid_mov) ->
              if stats.unrolled = 0 then
                next_uid :=
                  1
                  + Array.fold_left
                      (fun acc b ->
                        List.fold_left (fun a (i : insn) -> max a i.uid) acc b.insns)
                      0 fn.blocks;
              stats.unrolled <- stats.unrolled + 1;
              (* HLI-side duplication first: gives us per-copy item ids *)
              let item_copies =
                match hli with
                | Some (h : Hli_import.t) -> (
                    try
                      let r = h.session.unroll ~rid:c.c_loop.l_region ~factor in
                      Some r.Hli_core.Maintain.copies
                    with Diagnostics.Diagnostic _ ->
                      (* no such HLI region: unroll the RTL anyway, the
                         copies just carry no items *)
                      None)
                | None -> None
              in
              let item_copy orig k =
                match item_copies with
                | None -> None
                | Some copies -> (
                    match List.assoc_opt orig copies with
                    | Some arr when k < Array.length arr -> Some arr.(k)
                    | _ -> None)
              in
              let work =
                List.filter
                  (fun (i : insn) ->
                    i.uid <> uid_add && i.uid <> uid_mov && not (is_branch i))
                  body.insns
              in
              let terminator =
                List.filter (fun (i : insn) -> is_branch i) body.insns
              in
              (* Loop-carried registers (used before their definition in
                 body order, e.g. accumulators) must keep their names so
                 the copies chain through them; only iteration-local
                 temporaries are renamed. *)
              let carried : (reg, unit) Hashtbl.t = Hashtbl.create 16 in
              let defined : (reg, unit) Hashtbl.t = Hashtbl.create 16 in
              List.iter
                (fun (i : insn) ->
                  List.iter
                    (fun r ->
                      if not (Hashtbl.mem defined r) then
                        Hashtbl.replace carried r ())
                    (uses i);
                  match def i with
                  | Some d -> Hashtbl.replace defined d ()
                  | None -> ())
                work;
              (* copy k: rename defs; uses of iv become iv + k*step *)
              let copy_of k =
                if k = 0 then work
                else begin
                  stats.copies_made <- stats.copies_made + 1;
                  let rename : (reg, reg) Hashtbl.t = Hashtbl.create 16 in
                  let iv_k = fresh next_reg in
                  let map_use r =
                    if r = iv then iv_k
                    else Option.value ~default:r (Hashtbl.find_opt rename r)
                  in
                  let map_def r =
                    if Hashtbl.mem carried r then r
                    else begin
                      let nr = fresh next_reg in
                      Hashtbl.replace rename r nr;
                      nr
                    end
                  in
                  let map_operand = function
                    | Reg r -> Reg (map_use r)
                    | (Imm _ | Fimm _) as op -> op
                  in
                  let map_mem m =
                    {
                      m with
                      mbase =
                        (match m.mbase with
                        | Breg r -> Breg (map_use r)
                        | b -> b);
                      mindex = Option.map map_use m.mindex;
                    }
                  in
                  let iv_init =
                    {
                      uid = fresh next_uid;
                      desc = Alu (Add, iv_k, Reg iv, Imm (k * step));
                      line = 0;
                      item = None;
                    }
                  in
                  iv_init
                  :: List.map
                       (fun (i : insn) ->
                         let uid = fresh next_uid in
                         let item =
                           match i.item with
                           | Some it -> item_copy it k
                           | None -> None
                         in
                         let desc =
                           match i.desc with
                           | Li (d, op) -> Li (map_def d, map_operand op)
                           | Alu (op, d, a, b) ->
                               let a = map_operand a and b = map_operand b in
                               Alu (op, map_def d, a, b)
                           | Falu (op, d, a, b) ->
                               let a = map_operand a and b = map_operand b in
                               Falu (op, map_def d, a, b)
                           | La (d, s) -> La (map_def d, s)
                           | Laf (d, o) -> Laf (map_def d, o)
                           | Load (d, m) ->
                               let m = map_mem m in
                               Load (map_def d, m)
                           | Store (m, v) ->
                               let m = map_mem m and v = map_operand v in
                               Store (m, v)
                           | Cvt_i2f (d, s) ->
                               let s = map_use s in
                               Cvt_i2f (map_def d, s)
                           | Cvt_f2i (d, s) ->
                               let s = map_use s in
                               Cvt_f2i (map_def d, s)
                           | Getarg (d, k0) -> Getarg (map_def d, k0)
                           | Call _ | Br_eqz _ | Br_nez _ | Jmp _ | Ret _ ->
                               i.desc
                         in
                         { i with uid; desc; item })
                       work
                end
              in
              let copies = List.concat (List.init factor copy_of) in
              let new_step =
                {
                  uid = fresh next_uid;
                  desc = Alu (Add, iv, Reg iv, Imm (factor * step));
                  line = 0;
                  item = None;
                }
              in
              body.insns <- copies @ [ new_step ] @ terminator
        end)
      (candidates fn);
  if stats.unrolled = 0 then (fn, stats)
  else
    ( { fn with vreg_count = !next_reg; vreg_class = widened_classes fn !next_reg },
      stats )
