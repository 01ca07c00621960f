(** Loop-invariant code motion with HLI-aided memory disambiguation.

    A load can be hoisted out of a loop only when no store or call in
    the loop may touch its location (the paper's motivating example for
    alias queries in Section 3.2.2).  Without HLI, any store through a
    pointer pins every symbol-based load; with HLI, the equivalence
    classes and alias table settle most of those questions.

    Hoisting is deliberately conservative about registers: a candidate's
    destination must be an expression temporary — all its uses inside
    the loop sit in the same block, after the definition — so moving the
    definition to the preheader can never expose a stale value.

    Hoisted items are moved to the enclosing region through the unit's
    {!Hli_import.session}: [hoist_target] names the region, and
    [move_item_outward] moves the item there. *)

open Rtl

type stats = {
  mutable hoisted_loads : int;
  mutable hoisted_alu : int;
  mutable blocked_by_alias : int;
      (** loads whose hoisting only the memory disambiguator refused *)
}

let fresh_stats () = { hoisted_loads = 0; hoisted_alu = 0; blocked_by_alias = 0 }

(* registers defined anywhere in the given blocks *)
let defs_in (fn : fn) (bids : int list) : (int, int) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun bid ->
      if bid < Array.length fn.blocks then
        List.iter
          (fun i ->
            match def i with
            | Some r ->
                Hashtbl.replace t r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt t r))
            | None -> ())
          fn.blocks.(bid).insns)
    bids;
  t

let loop_insns (fn : fn) (l : loop_meta) : insn list =
  List.concat_map
    (fun bid ->
      if bid < Array.length fn.blocks then fn.blocks.(bid).insns else [])
    (l.l_header :: l.l_body_blocks)

(* may any store/call in the loop disturb this load? *)
let memory_pinned ~hli (loop_body : insn list) (ld : insn) (m : mem) : bool =
  List.exists
    (fun (i : insn) ->
      if is_store i then begin
        match mem_of_insn i with
        | Some sm ->
            let gcc = Gcc_alias.memrefs_conflict_p m sm in
            let hli_free =
              match hli with
              | Some h -> Hli_import.proves_independent h ld i
              | None -> false
            in
            gcc && not hli_free
        | None -> false
      end
      else if is_call i then begin
        match hli with
        | None -> true
        | Some h -> Hli_import.call_conflicts h ~call:i ~mem:ld
      end
      else false)
    loop_body

(* Destination register is a pure expression temporary within the loop:
   defined exactly once, and every use lies in the defining block after
   the definition.  One pass over the body: a use of [d] before [cand]
   has been seen in its block is a use outside the defining block or
   before the definition (uids are unique within a function, so [cand]
   sits in one block). *)
let temp_like (fn : fn) (body_bids : int list) (cand : insn) (d : reg) : bool =
  let defs = ref 0 in
  let rec scan seen = function
    | [] -> true
    | (j : insn) :: rest ->
        (match def j with Some r when r = d -> incr defs | _ -> ());
        if j.uid = cand.uid then scan true rest
        else !defs <= 1 && (seen || not (List.mem d (uses j))) && scan seen rest
  in
  List.for_all
    (fun bid -> bid >= Array.length fn.blocks || scan false fn.blocks.(bid).insns)
    body_bids
  && !defs = 1

(** Hoist invariant code of every loop of [fn] into its preheader,
    innermost-first.  With [hli], the HLI items of hoisted loads move
    outward through its session. *)
let run_fn ?hli (fn : fn) : stats =
  let stats = fresh_stats () in
  let counted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* innermost loops have larger region ids with our preorder numbering;
     process deepest first so code percolates outward level by level *)
  let loops = List.sort (fun a b -> compare b.l_region a.l_region) fn.loops in
  List.iter
    (fun l ->
      let body_bids = l.l_header :: l.l_body_blocks in
      let body = loop_insns fn l in
      let loop_defs = defs_in fn body_bids in
      let hoisted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let hoisted_regs : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let invariant_reg r =
        (not (Hashtbl.mem loop_defs r)) || Hashtbl.mem hoisted_regs r
      in
      let invariant_operands (i : insn) = List.for_all invariant_reg (uses i) in
      let changed = ref true in
      let to_hoist = ref [] in
      while !changed do
        changed := false;
        List.iter
          (fun bid ->
            if bid < Array.length fn.blocks && bid <> l.l_header then
              List.iter
                (fun (i : insn) ->
                  if not (Hashtbl.mem hoisted i.uid) then begin
                    let can =
                      match (i.desc, def i) with
                      | ( ( Alu _ | Falu _ | La _ | Laf _
                          | Li (_, (Imm _ | Fimm _))
                          | Cvt_i2f _ | Cvt_f2i _ ),
                          Some d ) ->
                          invariant_operands i && temp_like fn body_bids i d
                      | Load (_, m), Some d ->
                          invariant_operands i
                          && temp_like fn body_bids i d
                          &&
                          let pinned = memory_pinned ~hli body i m in
                          if pinned && not (Hashtbl.mem counted i.uid) then begin
                            Hashtbl.replace counted i.uid ();
                            stats.blocked_by_alias <- stats.blocked_by_alias + 1
                          end;
                          not pinned
                      | _ -> false
                    in
                    if can then begin
                      Hashtbl.replace hoisted i.uid ();
                      (match def i with
                      | Some d -> Hashtbl.replace hoisted_regs d ()
                      | None -> ());
                      to_hoist := i :: !to_hoist;
                      changed := true
                    end
                  end)
                fn.blocks.(bid).insns)
          body_bids
      done;
      let to_hoist = List.rev !to_hoist in
      if to_hoist <> [] then begin
        List.iter
          (fun bid ->
            if bid < Array.length fn.blocks then
              fn.blocks.(bid).insns <-
                List.filter
                  (fun (i : insn) -> not (Hashtbl.mem hoisted i.uid))
                  fn.blocks.(bid).insns)
          body_bids;
        (* insert into the preheader before its terminator *)
        let pre = fn.blocks.(l.l_preheader) in
        let rec split acc = function
          | [] -> (List.rev acc, [])
          | i :: rest when is_branch i -> (List.rev acc, i :: rest)
          | i :: rest -> split (i :: acc) rest
        in
        let before, term = split [] pre.insns in
        pre.insns <- before @ to_hoist @ term;
        List.iter
          (fun (i : insn) ->
            match i.desc with
            | Load _ -> (
                stats.hoisted_loads <- stats.hoisted_loads + 1;
                match (hli, i.item) with
                | Some (h : Hli_import.t), Some it -> (
                    match h.session.hoist_target it with
                    | Some p ->
                        ignore (h.session.move_item_outward ~item:it ~target_rid:p)
                    | None -> ())
                | _ -> ())
            | _ -> stats.hoisted_alu <- stats.hoisted_alu + 1)
          to_hoist
      end)
    loops;
  stats
