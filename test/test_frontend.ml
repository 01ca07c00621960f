let paper_example = {|
int a[10];
int b[10];
int sum;

void foo()
{
  int i;
  int j;
  for (i = 0; i < 10; i++)
  {
    a[i] = 0;
  }
  for (i = 0; i < 10; i++)
  {
    sum = sum + a[i] + b[0];
    for (j = 1; j < 10; j++)
    {
      b[j] = b[j] + b[j-1];
      a[i] = a[i] + b[j];
      sum = sum + 1;
    }
  }
}
|}

let test_smoke () =
  let prog = Srclang.Typecheck.program_of_string paper_example in
  let ctx = Hligen.Tblconst.make_context prog in
  let f = List.hd prog.Srclang.Tast.funcs in
  let entry, u, region = Hligen.Tblconst.build_unit ctx f in
  Fmt.epr "region tree:@.%a@." Frontir.Region.pp_tree region;
  List.iter (fun it -> Fmt.epr "%a@." Frontir.Itemgen.pp_item it) u.Frontir.Itemgen.items;
  Fmt.epr "%a@." Hli_core.Tables.pp_entry entry;
  let file = { Hli_core.Tables.entries = [ entry ] } in
  let bytes = Hli_core.Serialize.to_bytes file in
  let file2 = Hli_core.Serialize.of_bytes bytes in
  Alcotest.(check bool) "roundtrip" true (file = file2);
  Alcotest.(check int) "4 regions" 4 (List.length entry.Hli_core.Tables.regions)


(* Verify the Memwalk/Lower ordering contract: HLI items map 1:1 onto
   RTL memory references for every function. *)
let test_mapping () =
  let prog = Srclang.Typecheck.program_of_string paper_example in
  let ctx = Hligen.Tblconst.make_context prog in
  let rtl = Backend.Lower.lower_program prog in
  List.iter
    (fun f ->
      let entry, _, _ = Hligen.Tblconst.build_unit ctx f in
      let fn = Option.get (Backend.Rtl.find_fn rtl f.Srclang.Tast.name) in
      let m = Backend.Hli_import.map_unit entry fn in
      Alcotest.(check int) (f.Srclang.Tast.name ^ " unmapped") 0 m.Backend.Hli_import.unmapped_insns;
      Alcotest.(check (list int)) (f.Srclang.Tast.name ^ " mismatched") [] m.Backend.Hli_import.mismatched_lines)
    prog.Srclang.Tast.funcs

let e2e_src = {|
double x[100];
double y[100];
double z[100];
int n = 100;

void saxpy(double a)
{
  int i;
  for (i = 0; i < 100; i++)
  {
    y[i] = y[i] + a * x[i];
    z[i] = y[i] * 2.0;
  }
}

int main()
{
  int i;
  double sum;
  for (i = 0; i < 100; i++)
  {
    x[i] = i * 1.0;
    y[i] = 2.0 * i;
  }
  saxpy(3.0);
  sum = 0.0;
  for (i = 0; i < 100; i++)
  {
    sum = sum + z[i];
  }
  print_double(sum);
  return 0;
}
|}

let compile_both src =
  let prog = Srclang.Typecheck.program_of_string src in
  let ctx = Hligen.Tblconst.make_context prog in
  let entries =
    List.map (fun f -> let e, _, _ = Hligen.Tblconst.build_unit ctx f in e)
      prog.Srclang.Tast.funcs
  in
  let make_rtl mode =
    let rtl = Backend.Lower.lower_program prog in
    let hli_of_fn name =
      match List.find_opt (fun (e : Hli_core.Tables.hli_entry) -> e.Hli_core.Tables.unit_name = name) entries with
      | Some e ->
          let fn = Option.get (Backend.Rtl.find_fn rtl name) in
          Some (Backend.Hli_import.map_unit e fn)
      | None -> None
    in
    match
      Backend.Sched.schedule_program ~mode ~hli_of_fn
        ~mds:[ Backend.Machdesc.r10000 ] rtl
    with
    | [ rtl ], stats -> (rtl, stats)
    | _ -> assert false
  in
  (make_rtl Backend.Ddg.Gcc_only, make_rtl Backend.Ddg.With_hli)

let test_e2e () =
  let (rtl_gcc, _), (rtl_hli, stats) = compile_both e2e_src in
  let r1 = Machine.Simulate.run Machine.Simulate.R4600 rtl_gcc in
  let r2 = Machine.Simulate.run Machine.Simulate.R4600 rtl_hli in
  let r3 = Machine.Simulate.run Machine.Simulate.R10000 rtl_gcc in
  let r4 = Machine.Simulate.run Machine.Simulate.R10000 rtl_hli in
  Alcotest.(check string) "same output r4600" r1.Machine.Simulate.output r2.Machine.Simulate.output;
  Alcotest.(check string) "same output r10000" r3.Machine.Simulate.output r4.Machine.Simulate.output;
  Fmt.epr "output: %s@." (String.trim r1.Machine.Simulate.output);
  Fmt.epr "queries total=%d gcc=%d hli=%d combined=%d@." stats.Backend.Ddg.total
    stats.Backend.Ddg.gcc_yes stats.Backend.Ddg.hli_yes stats.Backend.Ddg.combined_yes;
  Fmt.epr "r4600: gcc=%d hli=%d | r10000: gcc=%d hli=%d (lsq stalls %d vs %d)@."
    r1.Machine.Simulate.cycles r2.Machine.Simulate.cycles
    r3.Machine.Simulate.cycles r4.Machine.Simulate.cycles
    r3.Machine.Simulate.lsq_stalls r4.Machine.Simulate.lsq_stalls;
  Alcotest.(check bool) "queries made" true (stats.Backend.Ddg.total > 0);
  (* expected checksum: sum z[i] = 2*(2i + 3i) = 10i summed = 10*4950 *)
  Alcotest.(check string) "checksum" "49500.000000" (String.trim r1.Machine.Simulate.output)

let () =
  Alcotest.run "frontend"
    [ ("smoke",
       [ Alcotest.test_case "paper example" `Quick test_smoke;
         Alcotest.test_case "item mapping" `Quick test_mapping;
         Alcotest.test_case "end to end" `Quick test_e2e ]) ]
