(* Unrolling with HLI maintenance (paper Figure 6): the loop body is
   duplicated, the duplicated memory references get fresh items, and the
   loop's LCDD table is recomputed — a distance-1 dependence between
   b[j] and b[j-1] becomes a same-body alias between copy 0 and copy 1
   plus a distance-1 LCDD between the wrapped copies.

   Run with: dune exec examples/unroll_maintenance.exe *)

let kernel =
  {|
double b[128];

void recur(double *v)
{
  int j;
  for (j = 1; j < 121; j++)
  {
    v[j] = v[j] + v[j-1] * 0.5;
  }
}

int main()
{
  int i;
  double s;
  for (i = 0; i < 128; i++)
  {
    b[i] = 1.0 + 0.01 * i;
  }
  recur(b);
  s = 0.0;
  for (i = 0; i < 128; i++)
  {
    s = s + b[i];
  }
  print_double(s);
  return 0;
}
|}

let () =
  let prog = Srclang.Typecheck.program_of_string kernel in
  let entries = Harness.Pipeline.build_hli_entries prog in
  let entry =
    List.find
      (fun (e : Hli_core.Tables.hli_entry) ->
        e.Hli_core.Tables.unit_name = "recur")
      entries
  in
  Fmt.pr "== HLI of recur() before unrolling ==@.%a@.@."
    Hli_core.Tables.pp_entry entry;
  (* baseline semantics *)
  let rtl0 = Backend.Lower.lower_program prog in
  let base = Machine.Exec.run rtl0 in
  (* unroll by 4 with maintenance *)
  let rtl = Backend.Lower.lower_program prog in
  let fn = Option.get (Backend.Rtl.find_fn rtl "recur") in
  let mt = Hli_core.Maintain.start entry in
  let hli =
    Backend.Hli_import.map_unit_lines ~session:(Backend.Hli_import.local mt)
      ~dups:[] ~line_table:entry.Hli_core.Tables.line_table fn
  in
  let fn, stats = Backend.Unroll.run_fn ~hli ~factor:4 fn in
  Fmt.pr "unrolled %d loop(s), made %d body copies@."
    stats.Backend.Unroll.unrolled stats.Backend.Unroll.copies_made;
  let entry', _ = Hli_core.Maintain.commit mt in
  Fmt.pr "@.== HLI of recur() after unrolling by 4 ==@.%a@.@."
    Hli_core.Tables.pp_entry entry';
  (* the transformed program still computes the same sum *)
  let rtl =
    {
      rtl with
      Backend.Rtl.fns =
        List.map
          (fun f -> if f.Backend.Rtl.fname = "recur" then fn else f)
          rtl.Backend.Rtl.fns;
    }
  in
  let opt = Machine.Exec.run rtl in
  assert (base.Machine.Exec.output = opt.Machine.Exec.output);
  Fmt.pr "output unchanged: %s" base.Machine.Exec.output;
  Fmt.pr "dynamic instructions %d -> %d (loop overhead removed)@."
    base.Machine.Exec.dyn_count opt.Machine.Exec.dyn_count
