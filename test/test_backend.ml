(* Tests for the back end: GCC-style alias rules, the lowering/ITEMGEN
   order contract on every workload, DDG query accounting, schedule
   validity, CSE against its copy-and-scan oracle, and the one
   machine-independent DDG against each machine's old graph. *)

open Backend

let mem ?(base = Rtl.Bframe) ?(off = 0) ?idx ?(scale = 1) ?(size = 4) () =
  {
    Rtl.mbase = base;
    moffset = off;
    mindex = idx;
    mscale = scale;
    msize = size;
    mclass = Rtl.Rint;
  }

let gsym name = Srclang.Symbol.fresh ~name ~ty:(Srclang.Types.Tarray (Srclang.Types.Tint, 10)) ~storage:Srclang.Symbol.Global

let gcc_alias_tests =
  [
    Alcotest.test_case "distinct globals never conflict" `Quick (fun () ->
        let a = mem ~base:(Rtl.Bsym (gsym "a")) () in
        let b = mem ~base:(Rtl.Bsym (gsym "b")) () in
        Alcotest.(check bool) "no" false (Gcc_alias.true_dependence a b));
    Alcotest.test_case "same global disjoint offsets" `Quick (fun () ->
        let s = gsym "a" in
        let a = mem ~base:(Rtl.Bsym s) ~off:0 ~size:4 () in
        let b = mem ~base:(Rtl.Bsym s) ~off:4 ~size:4 () in
        let c = mem ~base:(Rtl.Bsym s) ~off:2 ~size:4 () in
        Alcotest.(check bool) "disjoint" false (Gcc_alias.true_dependence a b);
        Alcotest.(check bool) "overlap" true (Gcc_alias.true_dependence a c));
    Alcotest.test_case "index register forces conflict" `Quick (fun () ->
        let s = gsym "a" in
        let a = mem ~base:(Rtl.Bsym s) ~idx:5 () in
        let b = mem ~base:(Rtl.Bsym s) ~off:400 () in
        Alcotest.(check bool) "yes" true (Gcc_alias.true_dependence a b));
    Alcotest.test_case "pointer conflicts with symbol" `Quick (fun () ->
        let a = mem ~base:(Rtl.Breg 3) () in
        let b = mem ~base:(Rtl.Bsym (gsym "a")) () in
        Alcotest.(check bool) "yes" true (Gcc_alias.true_dependence a b));
    Alcotest.test_case "same pointer reg, disjoint offsets" `Quick (fun () ->
        let a = mem ~base:(Rtl.Breg 3) ~off:0 () in
        let b = mem ~base:(Rtl.Breg 3) ~off:8 () in
        let c = mem ~base:(Rtl.Breg 4) ~off:8 () in
        Alcotest.(check bool) "same reg disjoint" false (Gcc_alias.true_dependence a b);
        Alcotest.(check bool) "different regs" true (Gcc_alias.true_dependence a c));
    Alcotest.test_case "frame vs global never conflict" `Quick (fun () ->
        let a = mem ~base:Rtl.Bframe () in
        let b = mem ~base:(Rtl.Bsym (gsym "a")) () in
        Alcotest.(check bool) "no" false (Gcc_alias.true_dependence a b));
    Alcotest.test_case "arg areas are private" `Quick (fun () ->
        let out = mem ~base:Rtl.Bargout ~off:32 () in
        let ptr = mem ~base:(Rtl.Breg 3) () in
        let out2 = mem ~base:Rtl.Bargout ~off:32 () in
        Alcotest.(check bool) "vs pointer" false (Gcc_alias.true_dependence out ptr);
        Alcotest.(check bool) "same slot" true (Gcc_alias.true_dependence out out2));
  ]

(* ------------------------------------------------------------------ *)
(* Mapping contract on every workload                                  *)
(* ------------------------------------------------------------------ *)

let mapping_tests =
  List.map
    (fun w ->
      Alcotest.test_case w.Workloads.Workload.name `Quick (fun () ->
          let prog =
            Srclang.Typecheck.program_of_string w.Workloads.Workload.source
          in
          let ctx = Hligen.Tblconst.make_context prog in
          let rtl = Lower.lower_program prog in
          List.iter
            (fun f ->
              let entry, _, _ = Hligen.Tblconst.build_unit ctx f in
              let fn = Option.get (Rtl.find_fn rtl f.Srclang.Tast.name) in
              let m = Hli_import.map_unit entry fn in
              Alcotest.(check int)
                (f.Srclang.Tast.name ^ " unmapped")
                0 m.Hli_import.unmapped_insns;
              Alcotest.(check (list int))
                (f.Srclang.Tast.name ^ " mismatched lines")
                [] m.Hli_import.mismatched_lines)
            prog.Srclang.Tast.funcs))
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* DDG accounting and schedule validity                                *)
(* ------------------------------------------------------------------ *)

let stencil_src =
  {|
double u[128];
double v[128];

void step(double *x, double *y)
{
  int i;
  for (i = 1; i < 127; i++)
  {
    y[i] = x[i-1] + x[i+1] + x[i] * 0.5;
  }
}

int main()
{
  int i;
  double s;
  for (i = 0; i < 128; i++)
  {
    u[i] = 0.1 * i;
  }
  step(u, v);
  s = 0.0;
  for (i = 0; i < 128; i++)
  {
    s = s + v[i];
  }
  print_double(s);
  return 0;
}
|}

let compile_src mode src =
  let prog = Srclang.Typecheck.program_of_string src in
  let entries = Harness.Pipeline.build_hli_entries prog in
  let rtl = Lower.lower_program prog in
  let maps = Hashtbl.create 4 in
  List.iter
    (fun (e : Hli_core.Tables.hli_entry) ->
      match Rtl.find_fn rtl e.Hli_core.Tables.unit_name with
      | Some fn ->
          Hashtbl.replace maps e.Hli_core.Tables.unit_name (Hli_import.map_unit e fn)
      | None -> ())
    entries;
  match
    Sched.schedule_program ~mode
      ~hli_of_fn:(fun n -> Hashtbl.find_opt maps n)
      ~mds:[ Machdesc.r10000 ] rtl
  with
  | [ rtl ], stats -> (rtl, stats)
  | _ -> assert false

let compile_stats mode = compile_src mode stencil_src

let ddg_tests =
  [
    Alcotest.test_case "combined <= gcc and <= hli (Figure 5)" `Quick (fun () ->
        let _, s = compile_stats Ddg.With_hli in
        Alcotest.(check bool) "total > 0" true (s.Ddg.total > 0);
        Alcotest.(check bool) "combined <= gcc" true
          (s.Ddg.combined_yes <= s.Ddg.gcc_yes);
        Alcotest.(check bool) "combined <= hli" true
          (s.Ddg.combined_yes <= s.Ddg.hli_yes);
        Alcotest.(check bool) "all <= total" true
          (s.Ddg.gcc_yes <= s.Ddg.total && s.Ddg.hli_yes <= s.Ddg.total));
    Alcotest.test_case "HLI strictly disambiguates the stencil" `Quick (fun () ->
        let _, s = compile_stats Ddg.With_hli in
        Alcotest.(check bool) "hli < gcc" true (s.Ddg.hli_yes < s.Ddg.gcc_yes));
    Alcotest.test_case "schedules respect DDG order" `Quick (fun () ->
        (* after scheduling, every block must still be a topological
           order of a freshly built DDG *)
        let rtl, _ = compile_stats Ddg.Gcc_only in
        List.iter
          (fun fn ->
            Array.iter
              (fun (b : Rtl.block) ->
                let g =
                  Ddg.build ~mode:Ddg.Gcc_only ~hli:None
                    ~stats:(Ddg.fresh_stats ()) b.Rtl.insns
                in
                (* positions in the new order *)
                let pos = Hashtbl.create 16 in
                List.iteri
                  (fun idx (ins : Rtl.insn) -> Hashtbl.replace pos ins.Rtl.uid idx)
                  b.Rtl.insns;
                Array.iteri
                  (fun j preds ->
                    List.iter
                      (fun (k, _) ->
                        let pj = Hashtbl.find pos g.Ddg.insns.(j).Rtl.uid in
                        let pk = Hashtbl.find pos g.Ddg.insns.(k).Rtl.uid in
                        Alcotest.(check bool) "pred before succ" true (pk < pj))
                      preds)
                  g.Ddg.preds)
              fn.Rtl.blocks)
          rtl.Rtl.fns);
    Alcotest.test_case "branches stay last" `Quick (fun () ->
        let rtl, _ = compile_stats Ddg.With_hli in
        List.iter
          (fun fn ->
            Array.iter
              (fun (b : Rtl.block) ->
                let rec check_tail seen_branch = function
                  | [] -> ()
                  | (i : Rtl.insn) :: rest ->
                      if seen_branch then
                        Alcotest.(check bool) "only branches after a branch" true
                          (Rtl.is_branch i)
                      else ();
                      check_tail (seen_branch || Rtl.is_branch i) rest
                in
                check_tail false b.Rtl.insns)
              fn.Rtl.blocks)
          rtl.Rtl.fns);
  ]

(* ------------------------------------------------------------------ *)
(* List scheduler against its per-cycle-sort oracle                    *)
(* ------------------------------------------------------------------ *)

(* The scheduler as it was before the ready heap: priorities by memoized
   recursion, then every cycle snapshot the ready set, sort it by
   priority (block order breaking ties) and issue the first
   [issue_width]. *)
let reference_schedule ~(md : Machdesc.t) (g : Ddg.graph) =
  let n = Array.length g.Ddg.insns in
  let prio = Array.make n (-1) in
  let rec compute j =
    if prio.(j) < 0 then
      prio.(j) <-
        Machdesc.latency md g.Ddg.insns.(j)
        + List.fold_left
            (fun acc (succ, lat) -> max acc (lat + compute succ))
            0 g.Ddg.succs.(j);
    prio.(j)
  in
  for j = 0 to n - 1 do
    ignore (compute j)
  done;
  let unscheduled_preds = Array.map List.length g.Ddg.preds in
  let earliest = Array.make n 0 and scheduled = Array.make n false in
  let order = ref [] and cycle = ref 0 and remaining = ref n in
  while !remaining > 0 do
    let ready =
      List.filter
        (fun j ->
          (not scheduled.(j)) && unscheduled_preds.(j) = 0
          && earliest.(j) <= !cycle)
        (List.init n Fun.id)
      |> List.stable_sort (fun a b -> compare prio.(b) prio.(a))
    in
    List.iteri
      (fun rank j ->
        if rank < md.Machdesc.issue_width then begin
          scheduled.(j) <- true;
          decr remaining;
          order := j :: !order;
          List.iter
            (fun (succ, lat) ->
              unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
              earliest.(succ) <- max earliest.(succ) (!cycle + lat))
            g.Ddg.succs.(j)
        end)
      ready;
    incr cycle
  done;
  List.rev !order

(* node kinds, chosen for their spread of own latencies *)
let node_descs =
  [|
    Rtl.Li (0, Rtl.Imm 0);
    Rtl.Alu (Rtl.Mul, 0, Rtl.Imm 0, Rtl.Imm 0);
    Rtl.Alu (Rtl.Div, 0, Rtl.Imm 0, Rtl.Imm 0);
    Rtl.Falu (Rtl.Fadd, 0, Rtl.Imm 0, Rtl.Imm 0);
    Rtl.Falu (Rtl.Fdiv, 0, Rtl.Imm 0, Rtl.Imm 0);
    Rtl.Load (0, mem ());
  |]

(* [kinds] indexes [node_descs]; edges are (src, dst, latency) with
   src < dst *)
let graph_of kinds edges : Ddg.graph =
  let n = List.length kinds in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (src, dst, lat) ->
      preds.(dst) <- (src, lat) :: preds.(dst);
      succs.(src) <- (dst, lat) :: succs.(src))
    edges;
  let insns =
    Array.of_list
      (List.mapi
         (fun uid k ->
           { Rtl.uid; desc = node_descs.(k); line = 0; item = None })
         kinds)
  in
  { Ddg.insns; preds; succs }

let issue_order md g =
  List.map (fun (i : Rtl.insn) -> i.Rtl.uid) (Sched.schedule_block ~md g)

(* Random block DAGs: up to 64 nodes, latencies 0..36 weighted toward
   0-latency (WAR-like) and short edges, some edges doubled with the
   same or a 0 latency (a pair can carry a register and a memory
   edge). *)
let gen_dag =
  QCheck.Gen.(
    int_range 1 64 >>= fun n ->
    let lat = frequency [ (3, return 0); (4, int_range 1 4); (2, int_range 5 36) ] in
    let edge =
      map
        (fun (a, b, l, dup) ->
          let src = min a b and dst = max a b in
          match dup with
          | 0 -> [ (src, dst, l); (src, dst, l) ]
          | 1 -> [ (src, dst, l); (src, dst, 0) ]
          | _ -> [ (src, dst, l) ])
        (quad (int_bound (n - 1)) (int_bound (n - 1)) lat (int_bound 5))
    in
    pair
      (list_repeat n (int_bound (Array.length node_descs - 1)))
      (map
         (fun es -> List.filter (fun (s, d, _) -> s <> d) (List.concat es))
         (list_size (int_bound (3 * n)) edge)))

let print_dag (kinds, edges) =
  Printf.sprintf "kinds [%s]\nedges [%s]"
    (String.concat ";" (List.map string_of_int kinds))
    (String.concat ";"
       (List.map (fun (s, d, l) -> Printf.sprintf "%d->%d/%d" s d l) edges))

let sched_tests =
  let r4600 = Machdesc.r4600 and r10000 = Machdesc.r10000 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"heap scheduler = per-cycle sort (widths 1 and 4)"
         (QCheck.make ~print:print_dag gen_dag)
         (fun (kinds, edges) ->
           let g = graph_of kinds edges in
           List.for_all
             (fun md -> issue_order md g = reference_schedule ~md g)
             [ r4600; r10000 ]));
    Alcotest.test_case "0-latency release waits for the next cycle" `Quick
      (fun () ->
        (* 0 (prio 36) releases 1 (Div, prio 35) over a 0-latency edge
           in cycle 0; 2 (Li, prio 1) was already ready, so it takes the
           second slot of cycle 0 and 1 follows in cycle 1 *)
        let g = graph_of [ 0; 2; 0 ] [ (0, 1, 0) ] in
        Alcotest.(check (list int)) "order" [ 0; 2; 1 ] (issue_order r10000 g);
        Alcotest.(check (list int)) "oracle" (reference_schedule ~md:r10000 g)
          (issue_order r10000 g));
    Alcotest.test_case "equal priorities keep block order" `Quick (fun () ->
        let g = graph_of [ 0; 0; 0; 0; 0; 0; 2 ] [] in
        List.iter
          (fun md ->
            Alcotest.(check (list int))
              md.Machdesc.name [ 6; 0; 1; 2; 3; 4; 5 ] (issue_order md g))
          [ r4600; r10000 ]);
    Alcotest.test_case "a 36-cycle latency gap is skipped in order" `Quick
      (fun () ->
        (* 0 -> 1 is eligible at cycle 36, 2 -> 3 at cycle 31: the empty
           cycles in between are skipped, 3 first *)
        let g = graph_of [ 0; 0; 0; 0 ] [ (0, 1, 36); (2, 3, 30) ] in
        Alcotest.(check (list int)) "order" [ 0; 2; 3; 1 ] (issue_order r4600 g);
        Alcotest.(check (list int)) "oracle" (reference_schedule ~md:r4600 g)
          (issue_order r4600 g));
  ]

(* lowering sanity: loop metadata matches region numbering *)
let loop_meta_tests =
  [
    Alcotest.test_case "loop regions numbered like the front end" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string stencil_src in
        let rtl = Lower.lower_program prog in
        List.iter
          (fun f ->
            let region = Frontir.Region.of_func f in
            let fn = Option.get (Rtl.find_fn rtl f.Srclang.Tast.name) in
            let front_ids =
              List.filter_map
                (fun r ->
                  if Frontir.Region.is_loop r then Some r.Frontir.Region.rid
                  else None)
                (Frontir.Region.all region)
            in
            let back_ids = List.map (fun l -> l.Rtl.l_region) fn.Rtl.loops in
            Alcotest.(check (list int))
              (f.Srclang.Tast.name ^ " loop ids")
              (List.sort compare front_ids)
              (List.sort compare back_ids))
          prog.Srclang.Tast.funcs);
  ]

(* ------------------------------------------------------------------ *)
(* CSE against the copy-and-scan implementation                        *)
(* ------------------------------------------------------------------ *)

(* The value table before it was indexed by holder: every register
   definition copies the whole table and scans it for entries held in
   that register, and stores and calls scan a copy too.  Kept as the
   oracle for Cse, with its repeated match arms folded into [reuse] and
   [fresh_entry] and its stats type shared. *)
module Old_cse = struct
  open Rtl

  type vkey = Kimm of int | Kfimm of float | Kval of int

  type ekey =
    | Ealu of alu_op * vkey * vkey
    | Efalu of falu_op * vkey * vkey
    | Ela of int
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

  type entry = { holder : reg; vn : int; lmem : mem option; litem : int option }

  type state = {
    mutable next_vn : int;
    reg_vn : (reg, int) Hashtbl.t;
    table : (ekey, entry) Hashtbl.t;
    stats : Cse.stats;
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

  let kill_holder st r =
    Hashtbl.iter
      (fun k e -> if e.holder = r then Hashtbl.remove st.table k)
      (Hashtbl.copy st.table)

  let set_reg_vn st r vn =
    kill_holder st r;
    Hashtbl.replace st.reg_vn r vn

  let fresh_vn st r =
    let v = st.next_vn in
    st.next_vn <- v + 1;
    set_reg_vn st r v;
    v

  let invalidate_store st (m : mem) (storer : insn) =
    Hashtbl.iter
      (fun k e ->
        match e.lmem with
        | Some lm ->
            let gcc = Gcc_alias.memrefs_conflict_p lm m in
            let hli_independent =
              match (st.hli, e.litem, storer.item) with
              | Some h, Some li, Some si ->
                  Hli_import.item_proves_independent h li si
              | _ -> false
            in
            if gcc && not hli_independent then Hashtbl.remove st.table k
        | None -> ())
      (Hashtbl.copy st.table)

  let invalidate_call st (call : insn) =
    Hashtbl.iter
      (fun k e ->
        match e.lmem with
        | Some _ -> (
            match st.hli with
            | None ->
                st.stats.Cse.call_purges <- st.stats.Cse.call_purges + 1;
                Hashtbl.remove st.table k
            | Some h -> (
                match (e.litem, call.item) with
                | Some li, Some ci -> (
                    match h.Hli_import.session.call_acc ~call:ci ~mem:li with
                    | Hli_core.Query.Call_none | Hli_core.Query.Call_ref ->
                        st.stats.Cse.call_survivals <-
                          st.stats.Cse.call_survivals + 1
                    | Hli_core.Query.Call_mod | Hli_core.Query.Call_refmod
                    | Hli_core.Query.Call_unknown ->
                        st.stats.Cse.call_purges <- st.stats.Cse.call_purges + 1;
                        Hashtbl.remove st.table k)
                | _ ->
                    st.stats.Cse.call_purges <- st.stats.Cse.call_purges + 1;
                    Hashtbl.remove st.table k))
        | None -> ())
      (Hashtbl.copy st.table)

  let mem_key st (m : mem) =
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
    let out = ref [] in
    let emit i = out := i :: !out in
    let fresh_entry key d =
      let vn = fresh_vn st d in
      Hashtbl.replace st.table key { holder = d; vn; lmem = None; litem = None }
    in
    let reuse (i : insn) d e =
      st.stats.Cse.alu_eliminated <- st.stats.Cse.alu_eliminated + 1;
      set_reg_vn st d e.vn;
      emit { i with desc = Li (d, Reg e.holder) }
    in
    List.iter
      (fun (i : insn) ->
        match i.desc with
        | Alu (op, d, a, b) -> (
            let key = Ealu (op, vkey_of_operand st a, vkey_of_operand st b) in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | Some e ->
                set_reg_vn st d e.vn;
                emit i
            | None ->
                fresh_entry key d;
                emit i)
        | Falu (op, d, a, b) -> (
            let key = Efalu (op, vkey_of_operand st a, vkey_of_operand st b) in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | Some e ->
                set_reg_vn st d e.vn;
                emit i
            | None ->
                fresh_entry key d;
                emit i)
        | La (d, s) -> (
            let key = Ela s.Srclang.Symbol.id in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | _ ->
                fresh_entry key d;
                emit i)
        | Laf (d, off) -> (
            let key = Elaf off in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | _ ->
                fresh_entry key d;
                emit i)
        | Cvt_i2f (d, s0) -> (
            let key = Ecvt_i2f (Kval (vn_of_reg st s0)) in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | _ ->
                fresh_entry key d;
                emit i)
        | Cvt_f2i (d, s0) -> (
            let key = Ecvt_f2i (Kval (vn_of_reg st s0)) in
            match Hashtbl.find_opt st.table key with
            | Some e when e.holder <> d -> reuse i d e
            | _ ->
                fresh_entry key d;
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
                st.stats.Cse.loads_eliminated <- st.stats.Cse.loads_eliminated + 1;
                set_reg_vn st d e.vn;
                (match (st.hli, i.item) with
                | Some h, Some it -> h.Hli_import.session.delete_item it
                | _ -> ());
                emit { i with desc = Li (d, Reg e.holder); item = None }
            | _ ->
                let vn = fresh_vn st d in
                Hashtbl.replace st.table key
                  { holder = d; vn; lmem = Some m; litem = i.item };
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

  let run_fn ?hli (fn : fn) : Cse.stats =
    let stats = Cse.fresh_stats () in
    let st =
      { next_vn = 0; reg_vn = Hashtbl.create 64; table = Hashtbl.create 64;
        stats; hli }
    in
    Array.iter (fun b -> b.insns <- process_block st b.insns) fn.blocks;
    stats
end

let cse_syms = [| gsym "x"; gsym "y" |]

(* Random straight-line blocks over six registers, so destinations are
   redefined while they still hold table entries; memory goes through
   two globals, the frame and pointer registers, with and without an
   index; calls may define a register.  Most memory references and
   calls carry an HLI item. *)
let gen_cse_block =
  QCheck.Gen.(
    let reg = int_bound 5 in
    let opnd = frequency [ (4, map (fun r -> Rtl.Reg r) reg); (1, map (fun n -> Rtl.Imm n) (int_bound 3)) ] in
    let item = frequency [ (4, map Option.some (int_range 1 12)); (1, return None) ] in
    let mem =
      map
        (fun (b, off, idx, size) ->
          {
            Rtl.mbase =
              (match b with
              | 0 | 1 -> Rtl.Bsym cse_syms.(b)
              | 2 -> Rtl.Bframe
              | n -> Rtl.Breg (n - 3));
            moffset = 4 * off;
            mindex = (if idx < 3 then Some idx else None);
            mscale = 4;
            msize = size;
            mclass = Rtl.Rint;
          })
        (quad (int_bound 5) (int_bound 2) (int_bound 5) (oneofl [ 4; 8 ]))
    in
    let desc_item =
      frequency
        [
          (4, map3 (fun op d (a, b) -> (Rtl.Alu (op, d, a, b), None))
                (oneofl [ Rtl.Add; Rtl.Sub; Rtl.Mul ]) reg (pair opnd opnd));
          (1, map3 (fun d a b -> (Rtl.Falu (Rtl.Fadd, d, a, b), None)) reg opnd opnd);
          (1, map2 (fun d s -> (Rtl.La (d, cse_syms.(s)), None)) reg (int_bound 1));
          (1, map2 (fun d off -> (Rtl.Laf (d, 4 * off), None)) reg (int_bound 2));
          (1, map2 (fun d s -> (Rtl.Cvt_i2f (d, s), None)) reg reg);
          (1, map2 (fun d s -> (Rtl.Cvt_f2i (d, s), None)) reg reg);
          (2, map2 (fun d op -> (Rtl.Li (d, op), None)) reg opnd);
          (6, map3 (fun d m it -> (Rtl.Load (d, m), it)) reg mem item);
          (4, map3 (fun m v it -> (Rtl.Store (m, v), it)) mem opnd item);
          (2, map3 (fun args d it -> (Rtl.Call ("f", args, d), it))
                (list_size (int_bound 2) opnd) (opt reg) item);
          (1, map2 (fun d k -> (Rtl.Getarg (d, k), None)) reg (int_bound 1));
        ]
    in
    list_size (int_range 1 40) desc_item)

(* one function of 1-3 blocks (value numbers carry across blocks, the
   table does not) and a seed for the HLI answers *)
let gen_cse_case =
  QCheck.Gen.(pair (list_size (int_range 1 3) gen_cse_block) (int_bound 1000))

let cse_fn blocks =
  let uid = ref 0 in
  let block bid descs =
    {
      Rtl.bid;
      insns =
        List.map
          (fun (desc, item) ->
            incr uid;
            { Rtl.uid = !uid; desc; line = 1; item })
          descs;
      succs = [];
      preds = [];
    }
  in
  {
    Rtl.fname = "cse";
    params = [];
    ret_class = None;
    blocks = Array.of_list (List.mapi block blocks);
    entry = 0;
    frame_size = 16;
    argout_size = 0;
    vreg_count = 6;
    vreg_class = Array.make 6 Rtl.Rint;
    loops = [];
  }

(* An HLI session whose answers are a hash of the seed and the items,
   logging every call in order. *)
let logging_hli seed =
  let log = ref [] in
  let pick n xs = List.nth xs (Hashtbl.hash (seed, n) mod List.length xs) in
  let session =
    {
      Hli_import.equiv_acc =
        (fun a b ->
          log := Printf.sprintf "equiv %d %d" a b :: !log;
          pick (0, a, b)
            Hli_core.Query.[ Equiv_none; Equiv_alias; Equiv_unknown ]);
      call_acc =
        (fun ~call ~mem ->
          log := Printf.sprintf "call %d %d" call mem :: !log;
          pick (1, call, mem)
            Hli_core.Query.[ Call_none; Call_ref; Call_mod; Call_refmod; Call_unknown ]);
      delete_item = (fun it -> log := Printf.sprintf "delete %d" it :: !log);
      gen_item = (fun ~like:_ ~line:_ -> Alcotest.fail "CSE generated an item");
      move_item_outward = (fun ~item:_ ~target_rid:_ -> Alcotest.fail "CSE moved an item");
      unroll = (fun ~rid:_ ~factor:_ -> Alcotest.fail "CSE unrolled");
      hoist_target = (fun _ -> Alcotest.fail "CSE asked for a hoist target");
      barrier = (fun () -> Alcotest.fail "CSE ended a pass");
    }
  in
  let hli =
    { Hli_import.session; mapped = 0; unmapped_insns = 0;
      mismatched_lines = []; dup_items = [] }
  in
  (hli, log)

let print_cse_case (blocks, seed) =
  let fn = cse_fn blocks in
  Printf.sprintf "seed %d\n%s" seed (Fmt.str "%a" Rtl.pp_fn fn)

(* output insns, stats and the query/maintenance log of one run *)
let cse_run run (blocks, seed) ~with_hli =
  let fn = cse_fn blocks in
  let stats, log =
    if with_hli then
      let hli, log = logging_hli seed in
      let s = run ?hli:(Some hli) fn in
      (s, List.rev !log)
    else (run ?hli:None fn, [])
  in
  (Fmt.str "%a" Rtl.pp_fn fn, stats, log)

let cse_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000
         ~name:"indexed CSE = copy-and-scan CSE (insns, stats, query log)"
         (QCheck.make ~print:print_cse_case gen_cse_case)
         (fun case ->
           List.for_all
             (fun with_hli ->
               cse_run (fun ?hli fn -> Cse.run_fn ?hli fn)
                 case ~with_hli
               = cse_run (fun ?hli fn -> Old_cse.run_fn ?hli fn)
                   case ~with_hli)
             [ false; true ]));
  ]

(* ------------------------------------------------------------------ *)
(* LICM's temp_like against its five-scan version                      *)
(* ------------------------------------------------------------------ *)

(* [Licm.temp_like] before its scans were fused: a filter for the def
   count, three [List.exists] per block, a [List.find] for the defining
   block and a final [for_all]. *)
module Old_licm = struct
  open Rtl

  let temp_like (fn : fn) (body_bids : int list) (cand : insn) (d : reg) : bool =
    let def_count =
      List.fold_left
        (fun acc bid ->
          if bid < Array.length fn.blocks then
            acc
            + List.length
                (List.filter (fun j -> def j = Some d) fn.blocks.(bid).insns)
          else acc)
        0 body_bids
    in
    def_count = 1
    && List.for_all
         (fun bid ->
           if bid >= Array.length fn.blocks then true
           else begin
             let seen_def = ref false in
             let ok = ref true in
             List.iter
               (fun (j : insn) ->
                 if j.uid = cand.uid then seen_def := true
                 else if List.mem d (uses j) && not !seen_def then ok := false)
               fn.blocks.(bid).insns;
             (* a use before the def in the defining block, or any use in a
                block without the def, fails unless the def was seen *)
             !ok
             || not (List.exists (fun (j : insn) -> j.uid = cand.uid) fn.blocks.(bid).insns)
                && not (List.exists (fun (j : insn) -> List.mem d (uses j)) fn.blocks.(bid).insns)
           end)
         body_bids
    &&
    (* uses only in the defining block *)
    let def_bid =
      List.find
        (fun bid ->
          bid < Array.length fn.blocks
          && List.exists (fun (j : insn) -> j.uid = cand.uid) fn.blocks.(bid).insns)
        body_bids
    in
    List.for_all
      (fun bid ->
        bid = def_bid || bid >= Array.length fn.blocks
        || not (List.exists (fun (j : insn) -> List.mem d (uses j)) fn.blocks.(bid).insns))
      body_bids
end

(* a random function of 1-4 blocks, a body of block ids (some out of
   range, some repeated), a candidate from a body block, and whether
   to ask about its own destination or a random register *)
let gen_temp_like_case =
  QCheck.Gen.(
    quad
      (list_size (int_range 1 4) gen_cse_block)
      (list_size (int_range 1 5) (int_bound 4))
      nat (opt (int_bound 5)))

let temp_like_args (blocks, bids, pick, reg) =
  let fn = cse_fn blocks in
  let valid = List.filter (fun b -> b < Array.length fn.Rtl.blocks) bids in
  match List.concat_map (fun b -> fn.Rtl.blocks.(b).Rtl.insns) valid with
  | [] -> None
  | insns ->
      let cand = List.nth insns (pick mod List.length insns) in
      let d = match (reg, Rtl.def cand) with Some r, _ | None, Some r -> r | None, None -> 0 in
      Some (fn, bids, cand, d)

let print_temp_like_case ((blocks, bids, pick, reg) as case) =
  Printf.sprintf "bids [%s] pick %d reg %s\n%s"
    (String.concat ";" (List.map string_of_int bids))
    pick
    (match reg with Some r -> string_of_int r | None -> "def")
    (match temp_like_args case with
    | Some (fn, _, _, _) -> Fmt.str "%a" Rtl.pp_fn fn
    | None -> Fmt.str "%d blocks" (List.length blocks))

let licm_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"one-pass temp_like = five-scan temp_like"
         (QCheck.make ~print:print_temp_like_case gen_temp_like_case)
         (fun case ->
           match temp_like_args case with
           | None -> true
           | Some (fn, bids, cand, d) ->
               Licm.temp_like fn bids cand d = Old_licm.temp_like fn bids cand d));
  ]

(* ------------------------------------------------------------------ *)
(* One DDG for both machines, against the per-machine build            *)
(* ------------------------------------------------------------------ *)

(* [Ddg.build] as it was when each machine built its own graph: every
   RAW and store-to-load edge carries the producer's latency on [md],
   computed during the build.  The pair queries it makes are [Ddg]'s. *)
module Old_ddg = struct
  open Rtl
  open Ddg

  let build ~mode ?(combine_gcc = true) ~(hli : Hli_import.t option)
      ~(md : Machdesc.t) ~stats
      (block_insns : insn list) : graph =
    let insns = Array.of_list block_insns in
    let n = Array.length insns in
    let kind = Array.make n K_plain and lat = Array.make n 0 in
    let uses = Array.make n [] and defs = Array.make n (-1) in
    let nregs = ref 0 in
    for j = 0 to n - 1 do
      let i = insns.(j) in
      kind.(j) <- kind_of i;
      lat.(j) <- Machdesc.latency md i;
      uses.(j) <- Rtl.uses i;
      nregs := List.fold_left (fun top r -> Int.max top (r + 1)) !nregs uses.(j);
      match def i with
      | Some r ->
          defs.(j) <- r;
          nregs := Int.max !nregs (r + 1)
      | None -> ()
    done;
    let preds = Array.make n [] and succs = Array.make n [] in
    let add_edge src dst lat =
      if src <> dst then begin
        preds.(dst) <- (src, lat) :: preds.(dst);
        succs.(src) <- (dst, lat) :: succs.(src)
      end
    in
    (* register dependences: the last definition of each register, and
       its uses since *)
    let last_def = Array.make !nregs (-1) in
    let uses_since_def = Array.make !nregs [] in
    let rec read j = function
      | [] -> ()
      | r :: rest ->
          let dj = last_def.(r) in
          if dj >= 0 then add_edge dj j lat.(dj) (* RAW *);
          uses_since_def.(r) <- j :: uses_since_def.(r);
          read j rest
    in
    let rec war j = function
      | [] -> ()
      | uj :: rest ->
          add_edge uj j 0;
          war j rest
    in
    for j = 0 to n - 1 do
      read j uses.(j);
      let r = defs.(j) in
      if r >= 0 then begin
        if last_def.(r) >= 0 then add_edge last_def.(r) j 1 (* WAW *);
        war j uses_since_def.(r);
        last_def.(r) <- j;
        uses_since_def.(r) <- []
      end
    done;
    (* memory, call and control dependences *)
    let pair k j =
      let a = insns.(k) and b = insns.(j) in
      let dependent =
        match (kind.(k), kind.(j)) with
        | K_branch, _ | _, K_branch | K_call, K_call -> true
        | K_call, (K_load | K_store) -> call_mem_dependent ~mode ~hli a b
        | (K_load | K_store), K_call -> call_mem_dependent ~mode ~hli b a
        | K_store, (K_load | K_store) | K_load, K_store ->
            mem_pair_dependent ~mode ~combine_gcc ~hli ~stats a b
        | K_plain, _ | _, K_plain | K_load, K_load -> false
      in
      if dependent then
        (* a load waits for the store's latency, everything else 1 *)
        add_edge k j (match (kind.(k), kind.(j)) with K_store, K_load -> lat.(k) | _ -> 1)
    in
    (* The earlier instructions each kind can depend on, in block order:
       a plain instruction only on [branches]; a load on [no_loads]
       (branches, calls, stores); a store or call on [nonplain]; a branch
       on everything before it. *)
    let branches = Array.make n 0 and no_loads = Array.make n 0
    and nonplain = Array.make n 0 in
    let nb = ref 0 and nn = ref 0 and np = ref 0 in
    let visit buf len j =
      for t = 0 to len - 1 do
        pair buf.(t) j
      done
    in
    let push buf len j =
      buf.(!len) <- j;
      incr len
    in
    for j = 0 to n - 1 do
      (match kind.(j) with
      | K_branch ->
          for k = 0 to j - 1 do
            pair k j
          done
      | K_plain -> visit branches !nb j
      | K_load -> visit no_loads !nn j
      | K_store | K_call -> visit nonplain !np j);
      match kind.(j) with
      | K_plain -> ()
      | K_load -> push nonplain np j
      | K_store | K_call -> push no_loads nn j; push nonplain np j
      | K_branch -> push branches nb j; push no_loads nn j; push nonplain np j
    done;
    { insns; preds; succs }
end

(* [g]'s edges with every producer latency taken from [md]: a pred
   entry's producer is the pred, a succ entry's is the node itself *)
let resolved md (g : Ddg.graph) =
  let lat = Array.map (Machdesc.latency md) g.Ddg.insns in
  let at src l = if l = Ddg.producer then lat.(src) else l in
  ( Array.map (List.map (fun (k, l) -> (k, at k l))) g.Ddg.preds,
    Array.mapi (fun j -> List.map (fun (k, l) -> (k, at j l))) g.Ddg.succs )

(* One block: the machine-independent graph, resolved on each machine,
   equals that machine's old graph edge for edge and in order, with the
   same query counts. *)
let same_as_old ~mode ?combine_gcc ~hli insns =
  let stats = Ddg.fresh_stats () in
  let g = Ddg.build ~mode ?combine_gcc ~hli ~stats insns in
  List.for_all
    (fun md ->
      let old_stats = Ddg.fresh_stats () in
      let old = Old_ddg.build ~mode ?combine_gcc ~hli ~md ~stats:old_stats insns in
      resolved md g = (old.Ddg.preds, old.Ddg.succs) && old_stats = stats)
    [ Machdesc.r4600; Machdesc.r10000 ]

(* every block of every function, after the back-end prefix of each
   alias mode *)
let split_workload_case (w : Workloads.Workload.t) =
  Alcotest.test_case w.Workloads.Workload.name `Quick (fun () ->
      List.iter
        (fun (specs, ablation) ->
          let h =
            Harness.Pipeline.frontend
              ~config:
                { Harness.Pipeline.default_config with hli_cache = None; ablation }
              w.Workloads.Workload.source
          in
          List.iter
            (fun alias ->
              let ctx = Driver.Pass.ctx ~alias ~ablation () in
              let m = Driver.Pass_manager.run_prefix ctx specs h in
              List.iter
                (fun (fn : Rtl.fn) ->
                  let hli = Hashtbl.find_opt m.Driver.Pass.m_maps fn.Rtl.fname in
                  Array.iter
                    (fun (b : Rtl.block) ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s %s L%d" ablation.Driver.Variant.ab_name
                           (Driver.Variant.alias_name alias) fn.Rtl.fname b.Rtl.bid)
                        true
                        (same_as_old ~mode:alias
                           ~combine_gcc:ablation.Driver.Variant.combine_gcc ~hli
                           b.Rtl.insns))
                    fn.Rtl.blocks)
                m.Driver.Pass.m_rtl.Rtl.fns)
            Driver.Variant.aliases)
        [
          ([], Driver.Variant.baseline);
          (Driver.Pass_manager.parse_specs "cse,licm,unroll=4", Driver.Variant.baseline);
        ])

(* HLI answers hashed from a seed and the items *)
let hashed_hli seed =
  let pick n xs = List.nth xs (Hashtbl.hash (seed, n) mod List.length xs) in
  let equiv a b =
    pick (0, a, b)
      Hli_core.Query.
        [ Equiv_none; Equiv_alias; Equiv_same Hli_core.Tables.Maybe; Equiv_unknown ]
  in
  let session =
    {
      Hli_import.equiv_acc = equiv;
      call_acc =
        (fun ~call ~mem ->
          pick (2, call, mem)
            Hli_core.Query.[ Call_none; Call_ref; Call_mod; Call_refmod; Call_unknown ]);
      delete_item = (fun _ -> Alcotest.fail "the DDG deleted an item");
      gen_item = (fun ~like:_ ~line:_ -> Alcotest.fail "the DDG generated an item");
      move_item_outward =
        (fun ~item:_ ~target_rid:_ -> Alcotest.fail "the DDG moved an item");
      unroll = (fun ~rid:_ ~factor:_ -> Alcotest.fail "the DDG unrolled");
      hoist_target = (fun _ -> Alcotest.fail "the DDG asked for a hoist target");
      barrier = (fun () -> Alcotest.fail "the DDG ended a pass");
    }
  in
  { Hli_import.session; mapped = 0; unmapped_insns = 0;
    mismatched_lines = []; dup_items = [] }

(* a random CSE block, ending in 0-2 branches *)
let gen_ddg_case = QCheck.Gen.(triple gen_cse_block (int_bound 2) (int_bound 1000))

let ddg_block (descs, branches, _) =
  let term = [ (Rtl.Br_eqz (0, 1), None); (Rtl.Jmp 2, None) ] in
  List.mapi
    (fun uid (desc, item) -> { Rtl.uid; desc; line = 1; item })
    (descs @ List.filteri (fun k _ -> k < branches) term)

let print_ddg_case ((_, _, seed) as case) =
  Printf.sprintf "seed %d\n%s" seed
    (String.concat "\n" (List.map (Fmt.str "%a" Rtl.pp_insn) (ddg_block case)))

let split_tests =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"random blocks: one graph = each machine's old graph"
       (QCheck.make ~print:print_ddg_case gen_ddg_case)
       (fun ((_, _, seed) as case) ->
         let insns = ddg_block case in
         List.for_all
           (fun (mode, hli) -> same_as_old ~mode ~hli insns)
           [
             (Ddg.Gcc_only, None);
             (Ddg.With_hli, None);
             (Ddg.With_hli, Some (hashed_hli seed));
           ]))
  :: List.map split_workload_case Workloads.Registry.all

let () =
  Alcotest.run "backend"
    [
      ("gcc-alias", gcc_alias_tests);
      ("mapping-contract", mapping_tests);
      ("ddg", ddg_tests);
      ("sched", sched_tests);
      ("cse", cse_tests);
      ("licm", licm_tests);
      ("machine-split", split_tests);
      ("loops", loop_meta_tests);
    ]
