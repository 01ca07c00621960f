(* Property-based soundness testing: generate random array kernels,
   compile them with and without HLI (and with the optimization passes),
   and require byte-identical program output.  This is the whole
   system's safety property: no analysis result may ever license a
   semantics-changing reordering.  Pipeline.measure, which times the
   schedules of one prefix from one interpretation, must also report
   exactly what simulating each variant alone does. *)

let array_names = [| "aa"; "bb"; "cc" |]

(* random subscript around the induction variable *)
let gen_subscript =
  QCheck.Gen.(
    oneof
      [
        return "i";
        return "i-1";
        return "i+1";
        return "i+2";
        map string_of_int (int_range 0 9);
      ])

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        (oneofl [ 0; 1; 2 ] >>= fun a ->
         gen_subscript >>= fun s ->
         return (Printf.sprintf "%s[%s]" array_names.(a) s));
        map string_of_int (int_range 1 9);
        return "s";
      ])

let gen_stmt =
  QCheck.Gen.(
    oneof
      [
        (* array store *)
        (oneofl [ 0; 1; 2 ] >>= fun a ->
         gen_subscript >>= fun s ->
         gen_operand >>= fun x ->
         gen_operand >>= fun y ->
         oneofl [ "+"; "-"; "*" ] >>= fun op ->
         return (Printf.sprintf "    %s[%s] = %s %s %s;" array_names.(a) s x op y));
        (* scalar update *)
        (gen_operand >>= fun x ->
         oneofl [ "+"; "-" ] >>= fun op ->
         return (Printf.sprintf "    s = s %s %s;" op x));
      ])

let gen_program =
  QCheck.Gen.(
    int_range 2 8 >>= fun nstmts ->
    list_repeat nstmts gen_stmt >>= fun body ->
    int_range 4 30 >>= fun trip ->
    let body = String.concat "\n" body in
    return
      (Printf.sprintf
         {|
int aa[64];
int bb[64];
int cc[64];

void kernel(int *pa, int *pb)
{
  int i;
  int s;
  s = 0;
  for (i = 3; i < %d; i++)
  {
%s
    pa[i] = pa[i] + pb[i-1];
  }
  aa[0] = aa[0] + s;
}

int main()
{
  int i;
  int sig;
  for (i = 0; i < 64; i++)
  {
    aa[i] = i * 3 + 1;
    bb[i] = 64 - i;
    cc[i] = (i * 7) %% 13;
  }
  kernel(aa, bb);
  kernel(bb, cc);
  sig = 0;
  for (i = 0; i < 64; i++)
  {
    sig = (sig * 31 + aa[i] + bb[i] * 2 + cc[i] * 3) %% 65536;
  }
  print_int(sig);
  return 0;
}
|}
         (3 + trip) body))

let arb_program = QCheck.make ~print:(fun s -> s) gen_program

(* The same kernels with a call in the loop body: [helper] reads one
   global array and writes another, so REF/MOD lets the HLI schedules
   move the kernel's other memory references across the call, and the
   loop body's block holds a call before its last instruction. *)
let gen_call_program =
  QCheck.Gen.(
    int_range 1 4 >>= fun nbefore ->
    int_range 1 4 >>= fun nafter ->
    list_repeat nbefore gen_stmt >>= fun before ->
    list_repeat nafter gen_stmt >>= fun after ->
    int_range 0 2 >>= fun r ->
    int_range 1 2 >>= fun dw ->
    gen_subscript >>= fun rs ->
    gen_subscript >>= fun ws ->
    int_range 4 30 >>= fun trip ->
    let w = (r + dw) mod 3 in
    return
      (Printf.sprintf
         {|
int aa[64];
int bb[64];
int cc[64];

void helper(int i)
{
  %s[%s] = %s[%s] * 2 + 1;
}

void kernel(int *pa, int *pb)
{
  int i;
  int s;
  s = 0;
  for (i = 3; i < %d; i++)
  {
%s
    helper(i);
%s
    pa[i] = pa[i] + pb[i-1];
  }
  aa[0] = aa[0] + s;
}

int main()
{
  int i;
  int sig;
  for (i = 0; i < 64; i++)
  {
    aa[i] = i * 3 + 1;
    bb[i] = 64 - i;
    cc[i] = (i * 7) %% 13;
  }
  kernel(aa, bb);
  kernel(bb, cc);
  sig = 0;
  for (i = 0; i < 64; i++)
  {
    sig = (sig * 31 + aa[i] + bb[i] * 2 + cc[i] * 3) %% 65536;
  }
  print_int(sig);
  return 0;
}
|}
         array_names.(w) ws array_names.(r) rs (3 + trip)
         (String.concat "\n" before) (String.concat "\n" after)))

let arb_call_program = QCheck.make ~print:(fun s -> s) gen_call_program

let outputs_agree ?(config = Harness.Pipeline.default_config) src =
  match Harness.Pipeline.compile ~config src with
  | exception Diagnostics.Diagnostic _ -> false
  | c ->
      let out rtl = (Machine.Exec.run rtl).Machine.Exec.output in
      let o1 = out (Harness.Pipeline.rtl_gcc_r4600 c) in
      out (Harness.Pipeline.rtl_hli_r4600 c) = o1
      && out (Harness.Pipeline.rtl_gcc_r10000 c) = o1
      && out (Harness.Pipeline.rtl_hli_r10000 c) = o1

(* [Pipeline.measure]'s reports equal each variant simulated on its own
   through [Pass_manager.simulate], field by field. *)
let measure_matches_simulate ?(config = Harness.Pipeline.default_config) src =
  match Harness.Pipeline.compile ~config src with
  | exception Diagnostics.Diagnostic _ -> false
  | c ->
      let measured = (Harness.Pipeline.measure c).Harness.Pipeline.reports in
      let alone =
        List.map
          (fun (v, s) ->
            let ctx =
              Driver.Pass.ctx ~variant:v ~ablation:config.Harness.Pipeline.ablation ()
            in
            (v, Driver.Pass_manager.simulate ctx s))
          c.Harness.Pipeline.variants
      in
      measured = alone

let unroll2 = Harness.Pipeline.config_of_passes "cse,licm,unroll=2"

let props =
  [
    QCheck.Test.make ~count:40 ~name:"HLI scheduling never changes output"
      arb_program (fun src -> outputs_agree src);
    QCheck.Test.make ~count:25 ~name:"CSE+LICM+unroll never change output"
      arb_program (fun src ->
        outputs_agree
          ~config:(Harness.Pipeline.config_of_passes "cse,licm,unroll=2")
          src);
    QCheck.Test.make ~count:40
      ~name:"HLI scheduling never changes output (call in the kernel)"
      arb_call_program (fun src -> outputs_agree src);
    QCheck.Test.make ~count:25
      ~name:"CSE+LICM+unroll never change output (call in the kernel)"
      arb_call_program (fun src -> outputs_agree ~config:unroll2 src);
    QCheck.Test.make ~count:25
      ~name:"measure equals separate simulations (call in the kernel)"
      arb_call_program (fun src -> measure_matches_simulate src);
    QCheck.Test.make ~count:15
      ~name:"measure equals separate simulations under cse,licm,unroll=2 (call in the kernel)"
      arb_call_program (fun src -> measure_matches_simulate ~config:unroll2 src);
    QCheck.Test.make ~count:40 ~name:"item mapping is always total" arb_program
      (fun src ->
        match Harness.Pipeline.compile src with
        | exception Diagnostics.Diagnostic _ -> false
        | c -> c.Harness.Pipeline.map_unmapped = 0);
  ]

let () =
  Alcotest.run "random-soundness"
    [ ("properties", List.map QCheck_alcotest.to_alcotest props) ]
