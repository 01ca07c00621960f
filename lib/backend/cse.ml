(** Local common-subexpression elimination with HLI-aided call handling
    (paper Figure 4).

    Classic value numbering within each basic block.  Redundant ALU
    results become register copies; redundant loads are the interesting
    case: a load is available until a store that {e may} alias it or a
    call that {e may} modify it.  Without HLI, a call purges every
    memory-derived value — GCC's pessimistic rule; with HLI, only the
    values whose locations the callee may MOD are purged
    ([invalidate_memory_clobbered] in the paper).

    Deleted loads have their HLI items removed through the session's
    maintenance functions, keeping the tables consistent for later
    passes. *)

open Rtl

type stats = {
  mutable alu_eliminated : int;
  mutable loads_eliminated : int;
  mutable call_purges : int;  (** table entries purged at calls *)
  mutable call_survivals : int;  (** entries HLI allowed to survive a call *)
}

let fresh_stats () =
  { alu_eliminated = 0; loads_eliminated = 0; call_purges = 0; call_survivals = 0 }

(* value-number keys *)
type vkey =
  | Kimm of int
  | Kfimm of float
  | Kval of int  (** value number *)

type ekey =
  | Ealu of alu_op * vkey * vkey
  | Efalu of falu_op * vkey * vkey
  | Ela of int  (** symbol id *)
  | Elaf of int
  | Ecvt_i2f of vkey
  | Ecvt_f2i of vkey
  | Eload of {
      kbase : vkey;
      kidx : vkey;
      koff : int;
      kscale : int;
      ksize : int;
      kcls : rclass;
    }

type entry = {
  holder : reg;  (** register currently holding the value *)
  vn : int;  (** value number of the expression *)
  lmem : mem option;  (** for loads: the reference, for invalidation *)
  litem : int option;  (** HLI item of the (surviving) defining load *)
}

type state = {
  mutable next_vn : int;
  reg_vn : (reg, int) Hashtbl.t;
  table : (ekey, entry) Hashtbl.t;
  held : (reg, ekey list) Hashtbl.t;
      (** holder -> keys of the entries it was given; a key whose entry
          has since been replaced or removed is stale and skipped *)
  stats : stats;
  hli : Hli_import.t option;
}

let vn_of_reg st r =
  match Hashtbl.find_opt st.reg_vn r with
  | Some v -> v
  | None ->
      let v = st.next_vn in
      st.next_vn <- v + 1;
      Hashtbl.replace st.reg_vn r v;
      v

let vkey_of_operand st = function
  | Imm n -> Kimm n
  | Fimm f -> Kfimm f
  | Reg r -> Kval (vn_of_reg st r)

let add_entry st key e =
  Hashtbl.replace st.table key e;
  Hashtbl.replace st.held e.holder
    (key :: Option.value ~default:[] (Hashtbl.find_opt st.held e.holder))

(* a def kills any table entry held in that register *)
let kill_holder st r =
  match Hashtbl.find_opt st.held r with
  | None -> ()
  | Some keys ->
      Hashtbl.remove st.held r;
      List.iter
        (fun k ->
          match Hashtbl.find_opt st.table k with
          | Some e when e.holder = r -> Hashtbl.remove st.table k
          | _ -> ())
        keys

let set_reg_vn st r vn =
  kill_holder st r;
  Hashtbl.replace st.reg_vn r vn

let fresh_vn st r =
  let v = st.next_vn in
  st.next_vn <- v + 1;
  set_reg_vn st r v;
  v

(* Stores and calls filter the table in place, visiting entries in
   [Hashtbl.iter] order, so the HLI query sequence is the order of the
   table itself.  A dropped entry's key stays in [held] as stale. *)

(* remove load entries whose memory may be clobbered by this store *)
let invalidate_store st (m : mem) (storer : insn) =
  Hashtbl.filter_map_inplace
    (fun _ e ->
      match e.lmem with
      | Some lm ->
          let gcc = Gcc_alias.memrefs_conflict_p lm m in
          let hli_independent =
            match (st.hli, e.litem, storer.item) with
            | Some h, Some li, Some si ->
                Hli_import.item_proves_independent h li si
            | _ -> false
          in
          if gcc && not hli_independent then None else Some e
      | None -> Some e)
    st.table

(* Figure 4: purge only what the call may MOD (when HLI is available) *)
let invalidate_call st (call : insn) =
  let purge () =
    st.stats.call_purges <- st.stats.call_purges + 1;
    None
  in
  Hashtbl.filter_map_inplace
    (fun _ e ->
      match (e.lmem, st.hli) with
      | None, _ -> Some e
      | Some _, None -> purge ()
      | Some _, Some h -> (
          match (e.litem, call.item) with
          | Some li, Some ci -> (
              match h.Hli_import.session.call_acc ~call:ci ~mem:li with
              | Hli_core.Query.Call_none | Hli_core.Query.Call_ref ->
                  st.stats.call_survivals <- st.stats.call_survivals + 1;
                  Some e
              | Hli_core.Query.Call_mod | Hli_core.Query.Call_refmod
              | Hli_core.Query.Call_unknown ->
                  purge ())
          | _ -> purge ()))
    st.table

let mem_key st (m : mem) =
  (* loads from the same structured address share a key *)
  let kbase =
    match m.mbase with
    | Bsym s -> Kimm (1000000 + s.Srclang.Symbol.id)
    | Breg r -> Kval (vn_of_reg st r)
    | Bframe -> Kimm 2000001
    | Bargout -> Kimm 2000002
    | Bargin -> Kimm 2000003
  in
  let kidx = match m.mindex with Some r -> Kval (vn_of_reg st r) | None -> Kimm 0 in
  Eload
    { kbase; kidx; koff = m.moffset; kscale = m.mscale; ksize = m.msize; kcls = m.mclass }

let process_block (st : state) (insns : insn list) : insn list =
  Hashtbl.reset st.table;
  Hashtbl.reset st.held;
  (* register numbering persists across blocks conservatively: a fresh
     table per block keeps this pass local, as in GCC's -O2 CSE within
     extended blocks *)
  let out = ref [] in
  let emit i = out := i :: !out in
  List.iter
    (fun (i : insn) ->
      match i.desc with
      | Alu (op, d, a, b) -> (
          let key = Ealu (op, vkey_of_operand st a, vkey_of_operand st b) in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | Some e ->
              set_reg_vn st d e.vn;
              emit i
          | None ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | Falu (op, d, a, b) -> (
          let key = Efalu (op, vkey_of_operand st a, vkey_of_operand st b) in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | Some e ->
              set_reg_vn st d e.vn;
              emit i
          | None ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | La (d, s) -> (
          let key = Ela s.Srclang.Symbol.id in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | _ ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | Laf (d, off) -> (
          let key = Elaf off in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | _ ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | Cvt_i2f (d, s0) -> (
          let key = Ecvt_i2f (Kval (vn_of_reg st s0)) in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | _ ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | Cvt_f2i (d, s0) -> (
          let key = Ecvt_f2i (Kval (vn_of_reg st s0)) in
          match Hashtbl.find_opt st.table key with
          | Some e when e.holder <> d ->
              st.stats.alu_eliminated <- st.stats.alu_eliminated + 1;
              set_reg_vn st d e.vn;
              emit { i with desc = Li (d, Reg e.holder) }
          | _ ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = None; litem = None };
              emit i)
      | Li (d, op) ->
          (match op with
          | Reg s0 -> set_reg_vn st d (vn_of_reg st s0)
          | Imm _ | Fimm _ -> ignore (fresh_vn st d));
          emit i
      | Load (d, m) -> (
          let key = mem_key st m in
          match Hashtbl.find_opt st.table key with
          | Some e when e.lmem <> None && e.holder <> d ->
              st.stats.loads_eliminated <- st.stats.loads_eliminated + 1;
              set_reg_vn st d e.vn;
              (* the load disappears: delete its HLI item *)
              (match (st.hli, i.item) with
              | Some h, Some it -> h.Hli_import.session.delete_item it
              | _ -> ());
              emit { i with desc = Li (d, Reg e.holder); item = None }
          | _ ->
              let vn = fresh_vn st d in
              add_entry st key { holder = d; vn; lmem = Some m; litem = i.item };
              emit i)
      | Store (m, _) ->
          invalidate_store st m i;
          emit i
      | Call _ ->
          invalidate_call st i;
          (match def i with Some d -> ignore (fresh_vn st d) | None -> ());
          emit i
      | Getarg (d, _) ->
          ignore (fresh_vn st d);
          emit i
      | Br_eqz _ | Br_nez _ | Jmp _ | Ret _ -> emit i)
    insns;
  List.rev !out

(** Run local CSE over a function.  [hli] enables the selective call
    invalidation of Figure 4 and keeps the HLI tables in sync with
    deleted loads. *)
let run_fn ?hli (fn : fn) : stats =
  let stats = fresh_stats () in
  let st =
    {
      next_vn = 0;
      reg_vn = Hashtbl.create 64;
      table = Hashtbl.create 64;
      held = Hashtbl.create 64;
      stats;
      hli;
    }
  in
  Array.iter (fun b -> b.insns <- process_block st b.insns) fn.blocks;
  stats
