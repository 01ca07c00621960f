(* Tests for the optimization passes: CSE (Figure 4), LICM, unrolling
   (Figure 6) — both their effect and their semantic safety. *)

let cse_src =
  {|
double coeff[4];
double buf[64];

void bump(double *d)
{
  d[0] = d[0] + 1.0;
}

double work()
{
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 64; i++)
  {
    s = s + coeff[0] * coeff[1];
    bump(buf);
    s = s + coeff[0] * coeff[1];
  }
  return s;
}

int main()
{
  int i;
  coeff[0] = 2.0;
  coeff[1] = 3.0;
  for (i = 0; i < 64; i++) { buf[i] = 0.0; }
  print_double(work());
  print_double(buf[0]);
  return 0;
}
|}

let setup src =
  let prog = Srclang.Typecheck.program_of_string src in
  let entries = Harness.Pipeline.build_hli_entries prog in
  (prog, entries)

let lower_with_maps prog entries =
  let rtl = Backend.Lower.lower_program prog in
  let maps =
    List.filter_map
      (fun (e : Hli_core.Tables.hli_entry) ->
        Option.map
          (fun fn -> (e.Hli_core.Tables.unit_name, (e, Backend.Hli_import.map_unit e fn)))
          (Backend.Rtl.find_fn rtl e.Hli_core.Tables.unit_name))
      entries
  in
  (rtl, maps)

let cse_tests =
  [
    Alcotest.test_case "HLI lets loads survive calls" `Quick (fun () ->
        let prog, entries = setup cse_src in
        let run use_hli =
          let rtl, maps = lower_with_maps prog entries in
          let total = Backend.Cse.fresh_stats () in
          List.iter
            (fun fn ->
              let _, m = List.assoc fn.Backend.Rtl.fname maps in
              let hli = if use_hli then Some m else None in
              let s = Backend.Cse.run_fn ?hli fn in
              total.Backend.Cse.loads_eliminated <-
                total.Backend.Cse.loads_eliminated + s.Backend.Cse.loads_eliminated)
            rtl.Backend.Rtl.fns;
          (rtl, total.Backend.Cse.loads_eliminated)
        in
        let rtl_gcc, loads_gcc = run false in
        let rtl_hli, loads_hli = run true in
        Alcotest.(check bool) "more loads eliminated with HLI" true
          (loads_hli > loads_gcc);
        let r1 = Machine.Exec.run rtl_gcc in
        let r2 = Machine.Exec.run rtl_hli in
        Alcotest.(check string) "same output" r1.Machine.Exec.output
          r2.Machine.Exec.output);
    Alcotest.test_case "CSE deletes HLI items via maintenance" `Quick (fun () ->
        let prog, entries = setup cse_src in
        let rtl, maps = lower_with_maps prog entries in
        let fn = Option.get (Backend.Rtl.find_fn rtl "work") in
        let entry, m = List.assoc "work" maps in
        let before = List.length (Hli_core.Tables.all_items entry) in
        let mt = Hli_core.Maintain.start entry in
        let m =
          Backend.Hli_import.map_unit_lines ~session:(Backend.Hli_import.local mt)
            ~dups:m.Backend.Hli_import.dup_items
            ~line_table:entry.Hli_core.Tables.line_table fn
        in
        let s = Backend.Cse.run_fn ~hli:m fn in
        let entry', _ = Hli_core.Maintain.commit mt in
        let after = List.length (Hli_core.Tables.all_items entry') in
        Alcotest.(check int) "items deleted"
          (before - s.Backend.Cse.loads_eliminated)
          after);
  ]

let licm_src =
  {|
double table[16];
double out[512];

void sweep(double *dst, double *t, int n)
{
  int i;
  for (i = 0; i < n; i++)
  {
    dst[i] = t[3] * 2.0 + t[5] + i * 0.5;
  }
}

int main()
{
  int i;
  double s;
  for (i = 0; i < 16; i++) { table[i] = 1.0 + i; }
  sweep(out, table, 512);
  s = 0.0;
  for (i = 0; i < 512; i++) { s = s + out[i]; }
  print_double(s);
  return 0;
}
|}

let licm_tests =
  [
    Alcotest.test_case "invariant loads hoist with HLI" `Quick (fun () ->
        let prog, entries = setup licm_src in
        let run use_hli =
          let rtl, maps = lower_with_maps prog entries in
          let hoisted = ref 0 in
          List.iter
            (fun fn ->
              let _, m = List.assoc fn.Backend.Rtl.fname maps in
              let hli = if use_hli then Some m else None in
              let s = Backend.Licm.run_fn ?hli fn in
              hoisted := !hoisted + s.Backend.Licm.hoisted_loads)
            rtl.Backend.Rtl.fns;
          (rtl, !hoisted)
        in
        let rtl_gcc, h_gcc = run false in
        let rtl_hli, h_hli = run true in
        (* the t[3]/t[5] loads hoist in both modes here (stores go to a
           provably different pointer only under HLI; without HLI the
           Breg-vs-Breg conflict pins them) *)
        Alcotest.(check bool) "hli hoists more or equal" true (h_hli >= h_gcc);
        Alcotest.(check bool) "hli hoists something" true (h_hli > 0);
        let r1 = Machine.Exec.run rtl_gcc in
        let r2 = Machine.Exec.run rtl_hli in
        Alcotest.(check string) "same output" r1.Machine.Exec.output
          r2.Machine.Exec.output;
        Alcotest.(check bool) "fewer dynamic instructions" true
          (r2.Machine.Exec.dyn_count <= r1.Machine.Exec.dyn_count));
  ]

let unroll_src =
  {|
double v[128];

int main()
{
  int i;
  double s;
  for (i = 0; i < 128; i++)
  {
    v[i] = 0.5 * i;
  }
  s = 0.0;
  for (i = 0; i < 128; i++)
  {
    s = s + v[i] * 1.5;
  }
  print_double(s);
  return 0;
}
|}

(* [Unroll.refresh] as it was, run after every unroll: rescan the
   function for its highest register, then infer the widened classes
   from definitions in three sweeps. *)
module Old_unroll = struct
  open Backend.Rtl

  let refresh (fn : fn) : fn =
    let max_reg =
      Array.fold_left
        (fun acc b ->
          List.fold_left
            (fun a (i : insn) ->
              let m1 = List.fold_left max a (uses i) in
              match def i with Some d -> max m1 d | None -> m1)
            acc b.insns)
        (fn.vreg_count - 1) fn.blocks
    in
    if max_reg < fn.vreg_count then fn
    else begin
      let classes = Array.make (max_reg + 1) Rint in
      Array.blit fn.vreg_class 0 classes 0 fn.vreg_count;
      (* infer classes of new registers from defs, iterating to propagate
         through copies *)
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
                | Li (_, Reg s), Some d when s <= max_reg -> classes.(d) <- classes.(s)
                | Alu _, Some d -> classes.(d) <- Rint
                | _ -> ())
              b.insns)
          fn.blocks
      done;
      { fn with vreg_count = max_reg + 1; vreg_class = classes }
    end
end

(* the registers [Unroll.run_fn] adds, against the rescan, on every
   workload after cse,licm in each alias mode *)
let widen_test =
  Alcotest.test_case "widened registers = rescan-and-infer, 14 workloads"
    `Quick (fun () ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          let h =
            Harness.Pipeline.frontend
              ~config:{ Harness.Pipeline.default_config with hli_cache = None }
              w.Workloads.Workload.source
          in
          List.iter
            (fun alias ->
              let ctx = Driver.Pass.ctx ~alias () in
              let m =
                Driver.Pass_manager.(run_prefix ctx (parse_specs "cse,licm") h)
              in
              List.iter
                (fun (fn : Backend.Rtl.fn) ->
                  let widened, _ = Backend.Unroll.run_fn ~factor:4 fn in
                  (* [fn]'s blocks were unrolled in place; its register
                     fields are still the lowering's *)
                  let old = Old_unroll.refresh fn in
                  let name = w.Workloads.Workload.name ^ " " ^ fn.Backend.Rtl.fname in
                  Alcotest.(check int) (name ^ " vreg_count")
                    old.Backend.Rtl.vreg_count widened.Backend.Rtl.vreg_count;
                  Alcotest.(check bool) (name ^ " vreg_class") true
                    (old.Backend.Rtl.vreg_class = widened.Backend.Rtl.vreg_class))
                m.Driver.Pass.m_rtl.Backend.Rtl.fns)
            Driver.Variant.aliases)
        Workloads.Registry.all)

let unroll_tests =
  [
    widen_test;
    Alcotest.test_case "unroll preserves semantics, cuts overhead" `Quick
      (fun () ->
        let prog, _ = setup unroll_src in
        let rtl0 = Backend.Lower.lower_program prog in
        let base = Machine.Exec.run rtl0 in
        let rtl = Backend.Lower.lower_program prog in
        let stats = ref 0 in
        let fns =
          List.map
            (fun fn ->
              let fn, s = Backend.Unroll.run_fn ~factor:4 fn in
              stats := !stats + s.Backend.Unroll.unrolled;
              fn)
            rtl.Backend.Rtl.fns
        in
        let rtl = { rtl with Backend.Rtl.fns = fns } in
        Alcotest.(check bool) "unrolled some loops" true (!stats >= 2);
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "same output" base.Machine.Exec.output
          r.Machine.Exec.output;
        Alcotest.(check bool) "fewer dynamic instructions" true
          (r.Machine.Exec.dyn_count < base.Machine.Exec.dyn_count));
    Alcotest.test_case "accumulator chains survive unrolling" `Quick (fun () ->
        (* the s += ... reduction is the loop-carried case the renamer
           must not break *)
        let prog, _ = setup unroll_src in
        let rtl = Backend.Lower.lower_program prog in
        let fns =
          List.map
            (fun fn -> fst (Backend.Unroll.run_fn ~factor:2 fn))
            rtl.Backend.Rtl.fns
        in
        let rtl = { rtl with Backend.Rtl.fns = fns } in
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "sum" "6096.000000"
          (String.trim r.Machine.Exec.output));
    Alcotest.test_case "non-dividing trip counts left alone" `Quick (fun () ->
        let src =
          "int a[7];\nint main() { int i; int s; s = 0; for (i = 0; i < 7; i++) { a[i] = i; s = s + a[i]; } print_int(s); return 0; }"
        in
        let prog, _ = setup src in
        let rtl = Backend.Lower.lower_program prog in
        let total = ref 0 in
        List.iter
          (fun fn ->
            let _, s = Backend.Unroll.run_fn ~factor:4 fn in
            total := !total + s.Backend.Unroll.unrolled)
          rtl.Backend.Rtl.fns;
        Alcotest.(check int) "nothing unrolled" 0 !total;
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "21" "21" (String.trim r.Machine.Exec.output));
  ]

(* whole-pipeline semantic preservation with all passes on, over a few
   workloads (the full set runs in test_workloads) *)
let integration_tests =
  List.map
    (fun name ->
      Alcotest.test_case ("passes preserve " ^ name) `Slow (fun () ->
          let w = Option.get (Workloads.Registry.find name) in
          let config = Harness.Pipeline.config_of_passes "cse,licm,unroll=2" in
          let c = Harness.Pipeline.compile ~config w.Workloads.Workload.source in
          let r1 = Machine.Exec.run (Harness.Pipeline.rtl_gcc_r4600 c) in
          let r2 = Machine.Exec.run (Harness.Pipeline.rtl_hli_r10000 c) in
          Alcotest.(check string) "output" r1.Machine.Exec.output
            r2.Machine.Exec.output))
    [ "101.tomcatv"; "129.compress"; "048.ora" ]

let () =
  Alcotest.run "passes"
    [
      ("cse", cse_tests);
      ("licm", licm_tests);
      ("unroll", unroll_tests);
      ("integration", integration_tests);
    ]
