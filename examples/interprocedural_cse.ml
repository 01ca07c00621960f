(* Interprocedural CSE (paper Figure 4): without HLI, a call forces GCC
   to forget every memory-derived value in its CSE table; with the call
   REF/MOD table, only values the callee may modify are purged.

   The kernel below keeps reloading coeff[0..2] around calls to a
   scaling helper that only touches a *different* array — with HLI the
   reloads become register copies.

   Run with: dune exec examples/interprocedural_cse.exe *)

let kernel =
  {|
double coeff[8];
double data[512];

void scale_data(double *d, double k)
{
  int i;
  for (i = 0; i < 512; i++)
  {
    d[i] = d[i] * k;
  }
}

double polish(double *d)
{
  int i;
  double s;
  s = 0.0;
  for (i = 1; i < 511; i++)
  {
    s = s + coeff[0] * d[i];
    scale_data(d, 1.0 + coeff[1] * 0.000001);
    s = s + coeff[0] * d[i] + coeff[2];
    scale_data(d, 1.0 - coeff[1] * 0.000001);
    s = s + coeff[0] + coeff[2];
  }
  return s;
}

int main()
{
  int i;
  coeff[0] = 1.5;
  coeff[1] = 0.5;
  coeff[2] = -0.25;
  for (i = 0; i < 512; i++)
  {
    data[i] = 0.01 * i;
  }
  print_double(polish(data));
  return 0;
}
|}

let compile_cse ~use_hli =
  let prog = Srclang.Typecheck.program_of_string kernel in
  let entries = Harness.Pipeline.build_hli_entries prog in
  let rtl = Backend.Lower.lower_program prog in
  let total = Backend.Cse.fresh_stats () in
  List.iter
    (fun fn ->
      let name = fn.Backend.Rtl.fname in
      let entry =
        List.find
          (fun (e : Hli_core.Tables.hli_entry) ->
            e.Hli_core.Tables.unit_name = name)
          entries
      in
      let m = Backend.Hli_import.map_unit entry fn in
      let hli = if use_hli then Some m else None in
      let s = Backend.Cse.run_fn ?hli fn in
      total.Backend.Cse.loads_eliminated <-
        total.Backend.Cse.loads_eliminated + s.Backend.Cse.loads_eliminated;
      total.Backend.Cse.alu_eliminated <-
        total.Backend.Cse.alu_eliminated + s.Backend.Cse.alu_eliminated;
      total.Backend.Cse.call_purges <-
        total.Backend.Cse.call_purges + s.Backend.Cse.call_purges;
      total.Backend.Cse.call_survivals <-
        total.Backend.Cse.call_survivals + s.Backend.Cse.call_survivals)
    rtl.Backend.Rtl.fns;
  (rtl, total)

let () =
  let rtl_gcc, s_gcc = compile_cse ~use_hli:false in
  let rtl_hli, s_hli = compile_cse ~use_hli:true in
  Fmt.pr "CSE without HLI: %d loads removed, %d table entries purged at calls@."
    s_gcc.Backend.Cse.loads_eliminated s_gcc.Backend.Cse.call_purges;
  Fmt.pr "CSE with    HLI: %d loads removed, %d purged, %d survived calls@."
    s_hli.Backend.Cse.loads_eliminated s_hli.Backend.Cse.call_purges
    s_hli.Backend.Cse.call_survivals;
  (* both variants must still compute the same answer *)
  let r1 = Machine.Exec.run rtl_gcc in
  let r2 = Machine.Exec.run rtl_hli in
  assert (r1.Machine.Exec.output = r2.Machine.Exec.output);
  Fmt.pr "output (both variants): %s" r1.Machine.Exec.output;
  Fmt.pr "dynamic instructions: %d without HLI, %d with@."
    r1.Machine.Exec.dyn_count r2.Machine.Exec.dyn_count
