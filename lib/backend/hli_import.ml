(** Importing HLI into the back end (paper Section 3.2.1).

    Maps the items of a unit's line table onto the function's RTL memory
    references and calls: per source line, the k-th item is matched to
    the k-th memory/call instruction generated from that line, checking
    access-kind agreement (load/store/call).  A mismatch stops the
    mapping for that line — the remaining references stay unmapped and
    all queries about them answer "unknown", exactly the graceful
    degradation the paper describes for unconsidered code-generation
    rules.

    The passes reach the HLI only through a {!session} of query and
    maintenance functions — the paper's front-end/back-end interface
    (Section 3.2, Figure 3).  {!local} builds one over an in-process
    {!Hli_core.Maintain.t}; the harness builds one over a hlid client,
    so no pass knows which side of the process boundary the HLI lives
    on. *)

open Rtl

(** One unit's HLI session.  Queries answer from the index as of the
    last [barrier], which the driver calls at the end of every pass. *)
type session = {
  equiv_acc : int -> int -> Hli_core.Query.equiv_result;
  equiv_prob : int -> int -> Hli_core.Query.equiv_result * int;
      (** the equiv answer plus its per-mille confidence *)
  call_acc : call:int -> mem:int -> Hli_core.Query.call_acc_result;
  delete_item : int -> unit;
  gen_item : like:int -> line:int -> int;
  move_item_outward : item:int -> target_rid:int -> bool;
  unroll : rid:int -> factor:int -> Hli_core.Maintain.unroll_result;
  hoist_target : int -> int option;
      (** the parent region of the item's region in the maintained
          entry — the LICM hoist decision *)
  barrier : unit -> unit;
}

(** The session of an in-process {!Hli_core.Maintain.t}. *)
let local (m : Hli_core.Maintain.t) : session =
  let module M = Hli_core.Maintain in
  let module Q = Hli_core.Query in
  {
    equiv_acc = (fun a b -> Q.get_equiv_acc (M.queried m) a b);
    equiv_prob = (fun a b -> Q.get_equiv_prob (M.queried m) a b);
    call_acc = (fun ~call ~mem -> Q.get_call_acc (M.queried m) ~call ~mem);
    delete_item = M.delete_item m;
    gen_item = M.gen_item m;
    move_item_outward = M.move_item_outward m;
    unroll = M.unroll m;
    hoist_target = M.hoist_target m;
    barrier = (fun () -> ignore (M.barrier m));
  }

type t = {
  session : session;
  mapped : int;  (** how many items were attached to instructions *)
  unmapped_insns : int;  (** memory/call insns left without an item *)
  mismatched_lines : int list;
  dup_items : int list;
      (** item ids the front end emitted more than once (line table or
          equivalence classes); the index kept the last occurrence *)
}

let insn_kind (i : insn) : Hli_core.Tables.access_type option =
  match i.desc with
  | Load _ -> Some Hli_core.Tables.Acc_load
  | Store _ -> Some Hli_core.Tables.Acc_store
  | Call _ -> Some Hli_core.Tables.Acc_call
  | _ -> None

(** Attach HLI items to the instructions of [fn] from a bare line
    table.  This is the whole import algorithm; it deliberately needs
    nothing but the line table, so a remote back end can run it after
    fetching the table over the wire. *)
let map_unit_lines ~(session : session) ~(dups : int list)
    ~(line_table : Hli_core.Tables.line_table) (fn : fn) : t =
  (* items_of_line only consults the line table, so a synthetic entry
     carries it without the region tables *)
  let lookup =
    { Hli_core.Tables.unit_name = fn.fname; line_table; regions = [] }
  in
  (* collect mappable instructions per line, in textual block order *)
  let by_line : (int, insn list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          match insn_kind i with
          | Some _ ->
              let cell =
                match Hashtbl.find_opt by_line i.line with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.replace by_line i.line c;
                    c
              in
              cell := i :: !cell
          | None -> ())
        b.insns)
    fn.blocks;
  let mapped = ref 0 and unmapped = ref 0 and bad_lines = ref [] in
  Hashtbl.iter
    (fun line cell ->
      let insns = List.rev !cell in
      let items = Hli_core.Tables.items_of_line lookup line in
      let rec go insns items ok =
        match (insns, items) with
        | [], _ -> ()
        | rest, [] ->
            unmapped := !unmapped + List.length rest;
            if ok && rest <> [] then bad_lines := line :: !bad_lines
        | i :: irest, it :: itrest ->
            if ok && insn_kind i = Some it.Hli_core.Tables.acc then begin
              i.item <- Some it.Hli_core.Tables.item_id;
              incr mapped;
              go irest itrest true
            end
            else begin
              (* kind mismatch: abandon this line's mapping *)
              if ok then bad_lines := line :: !bad_lines;
              unmapped := !unmapped + List.length insns;
              go [] [] false
            end
      in
      go insns items true)
    by_line;
  {
    session;
    mapped = !mapped;
    unmapped_insns = !unmapped;
    mismatched_lines = List.sort_uniq compare !bad_lines;
    dup_items = dups;
  }

(** Attach HLI items to the instructions of [fn].  [entry] must be the
    HLI entry of the same unit; the session is a fresh local one, which
    builds the unit's index. *)
let map_unit (entry : Hli_core.Tables.hli_entry) (fn : fn) : t =
  let m = Hli_core.Maintain.start entry in
  map_unit_lines ~session:(local m)
    ~dups:(Hli_core.Query.duplicate_items (Hli_core.Maintain.queried m))
    ~line_table:entry.Hli_core.Tables.line_table fn

let item_proves_independent (t : t) ia ib : bool =
  match t.session.equiv_acc ia ib with
  | Hli_core.Query.Equiv_none -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Query adapters over instructions                                    *)
(* ------------------------------------------------------------------ *)

(** HLI's verdict on whether two memory instructions may reference the
    same location within one iteration.  Unmapped instructions answer
    [Equiv_unknown]. *)
let equiv_acc (t : t) (a : insn) (b : insn) : Hli_core.Query.equiv_result =
  match (a.item, b.item) with
  | Some ia, Some ib -> t.session.equiv_acc ia ib
  | _ -> Hli_core.Query.Equiv_unknown

(** {!equiv_acc} plus its per-mille confidence.  Unmapped
    instructions answer [(Equiv_unknown, 0)] — no evidence, no
    confidence, so a speculative scheduler never drops their edges. *)
let equiv_prob (t : t) (a : insn) (b : insn) :
    Hli_core.Query.equiv_result * int =
  match (a.item, b.item) with
  | Some ia, Some ib -> t.session.equiv_prob ia ib
  | _ -> (Hli_core.Query.Equiv_unknown, 0)

(** Does the HLI prove these two references independent (no edge
    needed)? *)
let proves_independent (t : t) (a : insn) (b : insn) : bool =
  match equiv_acc t a b with
  | Hli_core.Query.Equiv_none -> true
  | _ -> false

(** REF/MOD relation between a call instruction and a memory
    instruction. *)
let call_acc (t : t) ~(call : insn) ~(mem : insn) : Hli_core.Query.call_acc_result =
  match (call.item, mem.item) with
  | Some ci, Some mi -> t.session.call_acc ~call:ci ~mem:mi
  | _ -> Hli_core.Query.Call_unknown

(** May the call disturb (or observe, for stores) the memory reference?
    Used both by the scheduler and by CSE's selective invalidation. *)
let call_conflicts (t : t) ~(call : insn) ~(mem : insn) : bool =
  match call_acc t ~call ~mem with
  | Hli_core.Query.Call_none -> false
  | Hli_core.Query.Call_ref ->
      (* a pure read by the callee only conflicts with stores *)
      is_store mem
  | Hli_core.Query.Call_mod | Hli_core.Query.Call_refmod
  | Hli_core.Query.Call_unknown ->
      true
