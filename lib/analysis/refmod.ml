(** Interprocedural REF/MOD analysis (side effects of calls).

    For every function, computes the set of symbols it may reference and
    the set it may modify — directly, through pointers (via
    {!Pointsto}), or transitively through the functions it calls.  This
    is the information the HLI's function-call REF/MOD table carries
    (paper Section 2.2.4) and what lets the back end schedule memory
    operations across calls and keep CSE expressions live over calls
    (Figure 4). *)

open Srclang

type target = All | Syms of Symbol.Set.t

let empty = Syms Symbol.Set.empty

let union a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Syms x, Syms y -> Syms (Symbol.Set.union x y)

let subset a b =
  match (a, b) with
  | _, All -> true
  | All, Syms _ -> false
  | Syms x, Syms y -> Symbol.Set.subset x y

let mem s = function All -> true | Syms set -> Symbol.Set.mem s set

let add s = function All -> All | Syms set -> Syms (Symbol.Set.add s set)

type summary = { refs : target; mods : target }

let empty_summary = { refs = empty; mods = empty }

let summary_union a b = { refs = union a.refs b.refs; mods = union a.mods b.mods }

let summary_subset a b = subset a.refs b.refs && subset a.mods b.mods

type t = {
  summaries : (string, summary) Hashtbl.t;
  pointsto : Pointsto.result;
}

(* Direct effects of one function body (no propagation through calls). *)
let direct_effects (pt : Pointsto.result) (f : Tast.func) : summary =
  let events = Frontir.Memwalk.func_events f in
  List.fold_left
    (fun acc { Frontir.Memwalk.event; _ } ->
      match event with
      | Frontir.Memwalk.Callsite _ -> acc
      | Frontir.Memwalk.Mem a ->
          let tgt =
            match a.Frontir.Access.base with
            | Frontir.Access.Direct s -> Syms (Symbol.Set.singleton s)
            | Frontir.Access.Through_ptr p -> (
                match Pointsto.points_to pt p with
                | Pointsto.Universe -> All
                | Pointsto.Syms set -> Syms set)
            | Frontir.Access.Unknown_ptr -> All
            | Frontir.Access.Stack_arg _ | Frontir.Access.Incoming_arg _ ->
                (* ABI spill traffic is private to the call linkage *)
                empty
          in
          if a.Frontir.Access.is_store then { acc with mods = union acc.mods tgt }
          else { acc with refs = union acc.refs tgt })
    empty_summary events

(** Compute REF/MOD summaries for all functions, iterating the call
    graph to a fixpoint (handles recursion and cycles). *)
let analyze (prog : Tast.program) (pt : Pointsto.result) : t =
  let cg = Callgraph.build prog in
  let summaries = Hashtbl.create 16 in
  let directs = Hashtbl.create 16 in
  List.iter
    (fun (f : Tast.func) ->
      let d = direct_effects pt f in
      Hashtbl.replace directs f.Tast.name d;
      Hashtbl.replace summaries f.Tast.name d)
    prog.Tast.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Tast.func) ->
        let name = f.Tast.name in
        let acc =
          List.fold_left
            (fun acc callee ->
              match Hashtbl.find_opt summaries callee with
              | Some s -> summary_union acc s
              | None -> acc)
            (Hashtbl.find directs name)
            (Callgraph.callees cg name)
        in
        let old = Hashtbl.find summaries name in
        if not (summary_subset acc old) then begin
          Hashtbl.replace summaries name (summary_union old acc);
          changed := true
        end)
      prog.Tast.funcs
  done;
  { summaries; pointsto = pt }

(** Effect of calling [name]: the function's summary, the empty
    summary for a builtin (none touches user memory; see {!Builtins}),
    and [All]/[All] for unknown functions. *)
let call_effect (t : t) name : summary =
  match Hashtbl.find_opt t.summaries name with
  | Some s -> s
  | None ->
      if Builtins.is_builtin name then empty_summary
      else { refs = All; mods = All }

(* ------------------------------------------------------------------ *)
(* REF/MOD fingerprints                                                *)
(* ------------------------------------------------------------------ *)

(* A syntactic digest of exactly what [direct_effects] consumes from a
   function: its memory-access skeleton (base of each access, and
   whether it stores) plus the builtin/unknown names it calls.  Two
   functions with equal digests have equal direct REF/MOD effects under
   any fixed points-to result, so a caller's cached HLI entry can
   survive callee edits that leave this digest unchanged (e.g. a
   constant tweak in straight-line arithmetic).  Lines and subscripts
   are deliberately excluded — they do not feed the summary.  Symbols
   are encoded by name/type/storage (never by id: ids are allocation
   order and shift when unrelated functions change). *)

let add_sym b (s : Symbol.t) =
  Buffer.add_string b s.Symbol.name;
  Buffer.add_char b ':';
  Types.digest_into b s.Symbol.ty;
  Buffer.add_char b
    (match s.Symbol.storage with
    | Symbol.Global -> 'g'
    | Symbol.Local -> 'l'
    | Symbol.Param -> 'p');
  Buffer.add_char b (if s.Symbol.addr_taken then '&' else '.');
  Buffer.add_char b ';'

(** Digest of a function's direct REF/MOD-relevant structure (see
    above); the per-callee component of {!Fingerprint}. *)
let direct_fingerprint (f : Tast.func) : Digest.t =
  let b = Buffer.create 256 in
  List.iter
    (fun { Frontir.Memwalk.event; _ } ->
      match event with
      | Frontir.Memwalk.Callsite name ->
          Buffer.add_string b "c|";
          Buffer.add_string b name;
          Buffer.add_char b ';'
      | Frontir.Memwalk.Mem a ->
          Buffer.add_string b (if a.Frontir.Access.is_store then "st|" else "ld|");
          (match a.Frontir.Access.base with
          | Frontir.Access.Direct s ->
              Buffer.add_char b 'd';
              add_sym b s
          | Frontir.Access.Through_ptr p ->
              Buffer.add_char b '*';
              add_sym b p
          | Frontir.Access.Unknown_ptr -> Buffer.add_string b "?;"
          | Frontir.Access.Stack_arg (g, i) ->
              Buffer.add_string b (Printf.sprintf "sa|%s|%d;" g i)
          | Frontir.Access.Incoming_arg (g, i) ->
              Buffer.add_string b (Printf.sprintf "ia|%s|%d;" g i)))
    (Frontir.Memwalk.func_events f);
  Digest.string (Buffer.contents b)

(** Convenience classification mirroring the paper's
    [HLI_GetCallAcc] result values. *)
type call_acc = Acc_none | Acc_ref | Acc_mod | Acc_refmod

let call_acc (t : t) ~callee (s : Symbol.t) : call_acc =
  let sum = call_effect t callee in
  match (mem s sum.refs, mem s sum.mods) with
  | false, false -> Acc_none
  | true, false -> Acc_ref
  | false, true -> Acc_mod
  | true, true -> Acc_refmod
