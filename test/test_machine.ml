(* Tests for the machine library: functional execution semantics of the
   RTL interpreter, the cache model, and basic timing-model sanity. *)

let run_src ?(fuel = 50_000_000) src =
  let prog = Srclang.Typecheck.program_of_string src in
  let rtl = Backend.Lower.lower_program prog in
  Machine.Exec.run ~fuel rtl

let check_output name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = run_src src in
      Alcotest.(check string) name expected (String.trim r.Machine.Exec.output))

let exec_tests =
  [
    check_output "arith and precedence"
      "int main() { print_int(2 + 3 * 4 - 10 / 2); return 0; }" "9";
    check_output "division truncates"
      "int main() { print_int(7 / 2); print_int(-7 % 3); return 0; }" "3\n-1";
    check_output "float arithmetic"
      "int main() { print_double(1.5 * 4.0 + 0.25); return 0; }" "6.250000";
    check_output "conversions"
      "int main() { int n; double x; n = 7; x = n / 2; print_double(x); n = (int)(3.9); print_int(n); return 0; }"
      "3.000000\n3";
    check_output "while and if"
      "int main() { int i; int s; i = 0; s = 0; while (i < 10) { if (i % 2 == 0) { s += i; } i++; } print_int(s); return 0; }"
      "20";
    check_output "short circuit"
      {|
int g;
int bump() { g = g + 1; return 1; }
int main()
{
  int r;
  g = 0;
  r = 0 && bump();
  r = r + (1 || bump());
  print_int(r);
  print_int(g);
  return 0;
}
|}
      "1\n0";
    check_output "arrays and pointers"
      {|
int a[5];
int main()
{
  int i;
  int *p;
  for (i = 0; i < 5; i++) { a[i] = i * i; }
  p = a + 1;
  print_int(p[2] + *p + a[4]);
  return 0;
}
|}
      "26";
    check_output "2d arrays"
      {|
int m[3][4];
int main()
{
  int i;
  int j;
  for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) { m[i][j] = i * 10 + j; } }
  print_int(m[2][3]);
  print_int(m[0][1]);
  return 0;
}
|}
      "23\n1";
    check_output "address-taken local"
      {|
void set(int *p, int v) { *p = v; }
int main()
{
  int x;
  x = 1;
  set(&x, 42);
  print_int(x);
  return 0;
}
|}
      "42";
    check_output "recursion"
      {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
int main() { print_int(fib(12)); return 0; }
|}
      "144";
    check_output "stack arguments (>4)"
      {|
int sum6(int a, int b, int c, int d, int e, int f)
{
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}
int main() { print_int(sum6(1, 2, 3, 4, 5, 6)); return 0; }
|}
      "91";
    check_output "double stack arguments"
      {|
double mix(double a, double b, double c, double d, double e)
{
  return a + b + c + d + e * 10.0;
}
int main() { print_double(mix(1.0, 2.0, 3.0, 4.0, 0.5)); return 0; }
|}
      "15.000000";
    check_output "builtins"
      "int main() { print_double(sqrt(16.0)); print_double(fabs(0.0 - 2.5)); print_int(abs(-3)); return 0; }"
      "4.000000\n2.500000\n3";
    check_output "global initializers"
      "int a = 5;\ndouble b = -1.5;\nint main() { print_int(a); print_double(b); return 0; }"
      "5\n-1.500000";
    Alcotest.test_case "rand is deterministic" `Quick (fun () ->
        let src =
          "int main() { srand(7); print_int(rand() % 100); print_int(rand() % 100); return 0; }"
        in
        let r1 = run_src src and r2 = run_src src in
        Alcotest.(check string) "same" r1.Machine.Exec.output r2.Machine.Exec.output);
    Alcotest.test_case "out of fuel raises" `Quick (fun () ->
        match run_src ~fuel:1000 "int main() { while (1) { } return 0; }" with
        | exception Machine.Exec.Out_of_fuel -> ()
        | _ -> Alcotest.fail "did not time out");
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        match run_src "int main() { int z; z = 0; return 1 / z; }" with
        | exception Machine.Exec.Runtime_error _ -> ()
        | _ -> Alcotest.fail "no error");
  ]

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "repeat access hits" `Quick (fun () ->
        let c = Machine.Exec.Cache.r4600 () in
        let miss1 = Machine.Exec.Cache.access c 0x1000 in
        let hit = Machine.Exec.Cache.access c 0x1004 in
        Alcotest.(check bool) "first misses" true (miss1 > 0);
        Alcotest.(check int) "same line hits" 0 hit);
    Alcotest.test_case "capacity eviction" `Quick (fun () ->
        let c = Machine.Exec.Cache.r4600 () in
        ignore (Machine.Exec.Cache.access c 0);
        (* touch far more lines than 16KB can hold *)
        for k = 1 to 4096 do
          ignore (Machine.Exec.Cache.access c (k * 32))
        done;
        let again = Machine.Exec.Cache.access c 0 in
        Alcotest.(check bool) "evicted" true (again > 0));
    Alcotest.test_case "L2 catches L1 misses" `Quick (fun () ->
        let c = Machine.Exec.Cache.r10000 () in
        ignore (Machine.Exec.Cache.access c 0x2000);
        (* evict from L1 only: touch > 32KB of lines *)
        for k = 1 to 2048 do
          ignore (Machine.Exec.Cache.access c (0x10000 + (k * 32)))
        done;
        let lat = Machine.Exec.Cache.access c 0x2000 in
        Alcotest.(check int) "l2 hit penalty" c.Machine.Exec.Cache.l2_penalty lat);
    Alcotest.test_case "stats add up" `Quick (fun () ->
        let c = Machine.Exec.Cache.r4600 () in
        for k = 0 to 99 do
          ignore (Machine.Exec.Cache.access c (k * 4))
        done;
        let h, m = Machine.Exec.Cache.l1_stats c in
        Alcotest.(check int) "total" 100 (h + m));
    Alcotest.test_case "LRU evicts the way used least recently" `Quick (fun () ->
        (* lines A, B, C of one 2-way set, accessed A, B, A, C, A, B: C
           must evict B and keep A, so A then hits and B misses *)
        let order stride = List.map (fun k -> k * stride) [ 0; 1; 0; 2; 0; 1 ] in
        (* R4600 L1: 256 sets of 32-byte lines, 8 KB apart *)
        let c = Machine.Exec.Cache.r4600 () in
        Alcotest.(check (list int))
          "R4600 L1 latencies" [ 30; 30; 0; 30; 0; 30 ]
          (List.map (Machine.Exec.Cache.access c) (order 8192));
        Alcotest.(check (pair int int)) "R4600 L1 hits/misses" (2, 4) (Machine.Exec.Cache.l1_stats c);
        (* R10000 L1: 512 sets, 16 KB apart; the three lines sit in
           distinct L2 sets, so B's second L1 miss hits the L2 *)
        let c = Machine.Exec.Cache.r10000 () in
        Alcotest.(check (list int))
          "R10000 L1 latencies" [ 68; 68; 0; 68; 0; 8 ]
          (List.map (Machine.Exec.Cache.access c) (order 16384));
        Alcotest.(check (pair int int)) "R10000 L1 hits/misses" (2, 4) (Machine.Exec.Cache.l1_stats c);
        (* R10000 L2 alone: 16384 sets of 64-byte lines, 1 MB apart *)
        let l2 = Option.get (Machine.Exec.Cache.r10000 ()).Machine.Exec.Cache.l2 in
        Alcotest.(check (list bool))
          "R10000 L2 hits" [ false; false; true; false; true; false ]
          (List.map (Machine.Exec.Cache.access_level l2) (order (1024 * 1024)));
        Alcotest.(check (pair int int))
          "R10000 L2 hits/misses" (2, 4)
          (l2.Machine.Exec.Cache.hits, l2.Machine.Exec.Cache.misses));
  ]

(* ------------------------------------------------------------------ *)
(* Timing models                                                       *)
(* ------------------------------------------------------------------ *)

let timing_src =
  {|
double a[256];
int main()
{
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 256; i++) { a[i] = i * 0.5; }
  for (i = 1; i < 256; i++) { s = s + a[i] * a[i-1]; }
  print_double(s);
  return 0;
}
|}

(* main: one block of integer [descs] over registers 0-39, then
   [return 0] *)
let straight_rtl descs =
  let open Backend in
  let insns =
    List.mapi (fun uid desc -> { Rtl.uid; desc; line = 0; item = None }) descs
    @ [ { Rtl.uid = 99; desc = Rtl.Ret (Some (Rtl.Imm 0)); line = 0; item = None } ]
  in
  {
    Rtl.fns =
      [
        {
          Rtl.fname = "main";
          params = [];
          ret_class = Some Rtl.Rint;
          blocks = [| { Rtl.bid = 0; insns; succs = []; preds = [] } |];
          entry = 0;
          frame_size = 0;
          argout_size = 0;
          vreg_count = 40;
          vreg_class = Array.make 40 Rtl.Rint;
          loops = [];
        };
      ];
    globals = [];
  }

let timing_tests =
  [
    Alcotest.test_case "r10000 width and window limits" `Quick (fun () ->
        let open Backend in
        let r10000 descs = Machine.Simulate.run Machine.Simulate.R10000 (straight_rtl descs) in
        (* 40 independent ops.  A 35-cycle divide, then 31 adds that
           dispatch 4 a cycle and finish behind it; once it retires they
           retire 4 a cycle.  The 32-entry ROB is then full, so the last
           8 (19-cycle FP divides alternating with adds) dispatch only as
           the first 8 retire. *)
        let wide =
          r10000
            ((Rtl.Alu (Rtl.Div, 0, Rtl.Imm 7, Rtl.Imm 3)
             :: List.init 31 (fun k -> Rtl.Alu (Rtl.Add, k + 1, Rtl.Imm k, Rtl.Imm 1)))
            @ List.init 8 (fun k ->
                  if k mod 2 = 0 then Rtl.Falu (Rtl.Fdiv, k + 32, Rtl.Fimm 1.0, Rtl.Fimm 3.0)
                  else Rtl.Alu (Rtl.Add, k + 32, Rtl.Imm k, Rtl.Imm 1)))
        in
        (* 40 adds, each reading the one before: one issues a cycle *)
        let chain =
          r10000
            (Rtl.Li (0, Rtl.Imm 0)
            :: List.init 39 (fun k -> Rtl.Alu (Rtl.Add, k + 1, Rtl.Reg k, Rtl.Imm 1)))
        in
        Alcotest.(check (pair int int)) "independent: dyn insns, cycles" (41, 56)
          (wide.Machine.Simulate.dyn_insns, wide.Machine.Simulate.cycles);
        Alcotest.(check (pair int int)) "chain: dyn insns, cycles" (41, 40)
          (chain.Machine.Simulate.dyn_insns, chain.Machine.Simulate.cycles));
    Alcotest.test_case "r4600 cycles >= instructions" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        Alcotest.(check bool) "single issue" true
          (r.Machine.Simulate.cycles >= r.Machine.Simulate.dyn_insns));
    Alcotest.test_case "r10000 is faster than r4600" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r1 = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        let prog2 = Srclang.Typecheck.program_of_string timing_src in
        let rtl2 = Backend.Lower.lower_program prog2 in
        let r2 = Machine.Simulate.run Machine.Simulate.R10000 rtl2 in
        Alcotest.(check bool) "ooo wins" true
          (r2.Machine.Simulate.cycles < r1.Machine.Simulate.cycles);
        Alcotest.(check bool) "at least 1/width" true
          (r2.Machine.Simulate.cycles * 4 >= r2.Machine.Simulate.dyn_insns));
    Alcotest.test_case "both machines run the same program" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r1 = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        let prog2 = Srclang.Typecheck.program_of_string timing_src in
        let rtl2 = Backend.Lower.lower_program prog2 in
        let r2 = Machine.Simulate.run Machine.Simulate.R10000 rtl2 in
        Alcotest.(check string) "output" r1.Machine.Simulate.output
          r2.Machine.Simulate.output;
        Alcotest.(check int) "dyn insns" r1.Machine.Simulate.dyn_insns
          r2.Machine.Simulate.dyn_insns);
    Alcotest.test_case "a model made for another program is refused" `Quick
      (fun () ->
        (* the models read their per-pc tables unchecked *)
        let decode () =
          Machine.Exec.decode
            (Backend.Lower.lower_program (Srclang.Typecheck.program_of_string timing_src))
        in
        let code = decode () and other = decode () in
        List.iter
          (fun model ->
            match Machine.Exec.run_code ~model code with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "ran with another program's model")
          [
            Machine.Exec.R4600 (Machine.Exec.Inorder.make other);
            Machine.Exec.R10000 (Machine.Exec.Ooo.make other);
          ]);
  ]

(* Regression: [Exec.run ~fuel:n] executes exactly [n] instructions
   before raising [Out_of_fuel] (the seed let n+1 slip through), and
   [fuel = 0] means unlimited.  The budgeted runs drive an R10000 model,
   whose [seq] counts the instructions it was shown. *)
let fuel_tests =
  let src =
    "int main() { int i; i = 0; while (i < 50) { i++; } print_int(i); return 0; }"
  in
  let fresh_rtl () =
    Backend.Lower.lower_program (Srclang.Typecheck.program_of_string src)
  in
  (* instructions the model saw before the budget [n] tripped *)
  let dispatched_before_out_of_fuel n =
    let code = Machine.Exec.decode (fresh_rtl ()) in
    let m = Machine.Exec.Ooo.make code in
    (match Machine.Exec.run_code ~fuel:n ~model:(Machine.Exec.R10000 m) code with
    | _ -> Alcotest.fail "expected Out_of_fuel"
    | exception Machine.Exec.Out_of_fuel -> ());
    m.Machine.Exec.Ooo.seq
  in
  [
    Alcotest.test_case "fuel = total completes" `Quick (fun () ->
        let total = (Machine.Exec.run (fresh_rtl ())).Machine.Exec.dyn_count in
        let r = Machine.Exec.run ~fuel:total (fresh_rtl ()) in
        Alcotest.(check int) "dyn_count" total r.Machine.Exec.dyn_count);
    Alcotest.test_case "fuel = n executes exactly n" `Quick (fun () ->
        let total = (Machine.Exec.run (fresh_rtl ())).Machine.Exec.dyn_count in
        let n = total - 1 in
        Alcotest.(check int)
          "model saw exactly n instructions" n
          (dispatched_before_out_of_fuel n));
    Alcotest.test_case "tiny budgets trip precisely" `Quick (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check int)
              (Printf.sprintf "fuel=%d" n)
              n
              (dispatched_before_out_of_fuel n))
          [ 1; 2; 10 ]);
    Alcotest.test_case "fuel = 0 is unlimited" `Quick (fun () ->
        let r = Machine.Exec.run ~fuel:0 (fresh_rtl ()) in
        Alcotest.(check string) "output" "50"
          (String.trim r.Machine.Exec.output));
  ]

(* ------------------------------------------------------------------ *)
(* Behaviour the pre-decoder could silently change                     *)
(* ------------------------------------------------------------------ *)

let lower src = Backend.Lower.lower_program (Srclang.Typecheck.program_of_string src)

(* main: r0 <- [flag]; bnez r0 -> L1; ret 7.  L1 calls a name that is
   neither a function nor a builtin. *)
let unknown_callee_rtl ~flag =
  let open Backend in
  let insn uid desc = { Rtl.uid; desc; line = 0; item = None } in
  let b0 =
    [
      insn 0 (Rtl.Li (0, Rtl.Imm flag));
      insn 1 (Rtl.Br_nez (0, 1));
      insn 2 (Rtl.Ret (Some (Rtl.Imm 7)));
    ]
  in
  let b1 = [ insn 3 (Rtl.Call ("no_such_routine", [], None)); insn 4 (Rtl.Ret None) ] in
  {
    Rtl.fns =
      [
        {
          Rtl.fname = "main";
          params = [];
          ret_class = Some Rtl.Rint;
          blocks =
            [|
              { Rtl.bid = 0; insns = b0; succs = [ 1 ]; preds = [] };
              { Rtl.bid = 1; insns = b1; succs = []; preds = [ 0 ] };
            |];
          entry = 0;
          frame_size = 0;
          argout_size = 0;
          vreg_count = 1;
          vreg_class = [| Rtl.Rint |];
          loops = [];
        };
      ];
    globals = [];
  }

let raises_runtime_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match run_src src with
      | exception Machine.Exec.Runtime_error _ -> ()
      | _ -> Alcotest.fail "no Runtime_error")

(* fib plus a recursive walk with a frame array and a pointer argument:
   every activation reuses the same globalized register ids *)
let recursion_src =
  {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
int walk(int n, int *acc)
{
  int a[4];
  a[n % 4] = n;
  *acc = *acc + a[n % 4];
  if (n == 0) { return 0; }
  return walk(n - 1, acc) + a[n % 4];
}
int main()
{
  int acc;
  acc = 0;
  print_int(fib(12));
  print_int(walk(40, &acc));
  print_int(acc);
  return 0;
}
|}

(* writes a global array and deep stack frames with non-zero data, then
   runs [tail] *)
let dirty_src_then tail =
  Printf.sprintf
    {|
int g[4096];
int smash(int n)
{
  int a[64];
  int i;
  for (i = 0; i < 64; i++) { a[i] = n + i + 1; }
  if (n == 0) { return a[0]; }
  return smash(n - 1) + a[63];
}
int main()
{
  int i;
  for (i = 0; i < 4096; i++) { g[i] = i + 7; }
  print_int(smash(50));
  %s
  return 0;
}
|}
    tail

let dirty_src = dirty_src_then ""

(* reads the same global and stack bytes without writing them first:
   a clean image reads zeros *)
let probe_src =
  {|
int g[4096];
int peek(int n)
{
  int a[64];
  int i;
  int s;
  s = 0;
  for (i = 0; i < 64; i++) { s = s + a[i]; }
  if (n == 0) { return s; }
  return peek(n - 1) + s;
}
int main()
{
  int i;
  int s;
  s = 0;
  for (i = 0; i < 4096; i++) { s = s + g[i]; }
  print_int(s);
  print_int(peek(50));
  return 0;
}
|}

let probe () = String.trim (Machine.Exec.run (lower probe_src)).Machine.Exec.output

(* a [straight_rtl] access at the address in register 0: a 4-byte int
   or an 8-byte float *)
let at_r0 ~size =
  {
    Backend.Rtl.mbase = Backend.Rtl.Breg 0;
    moffset = 0;
    mindex = None;
    mscale = 1;
    msize = size;
    mclass = (if size = 8 then Backend.Rtl.Rflt else Backend.Rtl.Rint);
  }

(* prints the int at 0x2000, after [descs] *)
let peek_page_rtl descs =
  let open Backend in
  straight_rtl
    (descs
    @ [
        Rtl.Li (0, Rtl.Imm 0x2000);
        Rtl.Load (1, at_r0 ~size:4);
        Rtl.Call ("print_int", [ Rtl.Reg 1 ], None);
      ])

(* an 8-byte store at 0x1FFC, across the page boundary at 0x2000: 1.1's
   bits are non-zero in both halves *)
let straddle =
  let open Backend in
  [ Rtl.Li (0, Rtl.Imm 0x1FFC); Rtl.Store (at_r0 ~size:8, Rtl.Fimm 1.1) ]

(* resident set size in KiB *)
let vm_rss_kib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmRSS in /proc/self/status"
        | Some l -> (
            try Scanf.sscanf l "VmRSS: %d kB" Fun.id
            with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let decoder_tests =
  [
    Alcotest.test_case "unknown builtin raises only when reached" `Quick (fun () ->
        let r = Machine.Exec.run (unknown_callee_rtl ~flag:0) in
        Alcotest.(check int) "never-run call is harmless" 7 r.Machine.Exec.ret;
        match Machine.Exec.run (unknown_callee_rtl ~flag:1) with
        | exception Machine.Exec.Runtime_error msg ->
            Alcotest.(check string)
              "message" "unknown builtin"
              (String.sub msg 0 (min (String.length msg) 15))
        | _ -> Alcotest.fail "reached call did not raise");
    raises_runtime_error "load below memory raises"
      "int a[4]; int main() { int *p; p = a - 100000000; print_int(*p); return 0; }";
    raises_runtime_error "store beyond memory raises"
      "int a[4]; int main() { a[10000000] = 1; return 0; }";
    raises_runtime_error "modulo by zero raises"
      "int main() { int z; z = 0; return 1 % z; }";
    raises_runtime_error "stack overflow raises"
      "int f(int n) { return f(n + 1) + 1; } int main() { print_int(f(0)); return 0; }";
    (* the globals end ~1.5 MB below the top of the image, far above
       [global_base]: the frames must stop there, not write over g *)
    raises_runtime_error "stack reaching the globals raises"
      {|
int g[8000000];
int f(int n)
{
  int a[64];
  int i;
  for (i = 0; i < 64; i++) { a[i] = n + i; }
  if (n == 0) { return a[0]; }
  return f(n - 1) + a[63];
}
int main()
{
  g[7900000] = 5;
  print_int(f(20000));
  print_int(g[7900000]);
  return 0;
}
|};
    Alcotest.test_case "recursion keeps its cycle counts" `Quick (fun () ->
        List.iter
          (fun (m, dyn, cycles, hits, misses) ->
            let r = Machine.Simulate.run m (lower recursion_src) in
            let name = Machine.Simulate.machine_name m in
            Alcotest.(check string) (name ^ " output") "144\n820\n820"
              (String.trim r.Machine.Simulate.output);
            Alcotest.(check int) (name ^ " dyn insns") dyn r.Machine.Simulate.dyn_insns;
            Alcotest.(check int) (name ^ " cycles") cycles r.Machine.Simulate.cycles;
            Alcotest.(check (pair int int))
              (name ^ " L1 hits/misses") (hits, misses)
              (r.Machine.Simulate.l1_hits, r.Machine.Simulate.l1_misses))
          [
            (Machine.Simulate.R4600, 4227, 9864, 164, 42);
            (Machine.Simulate.R10000, 4227, 6700, 164, 42);
          ]);
    Alcotest.test_case "a reused memory image starts clean" `Quick (fun () ->
        (* a fresh domain has never run anything: the reference *)
        let fresh = Domain.join (Domain.spawn probe) in
        Alcotest.(check string) "fresh image reads zeros" "0\n0" fresh;
        let full = Machine.Exec.run (lower dirty_src) in
        Alcotest.(check string) "after a dirty run" fresh (probe ());
        (* runs that wrote memory and then stopped early *)
        (match Machine.Exec.run ~fuel:(full.Machine.Exec.dyn_count - 1) (lower dirty_src) with
        | exception Machine.Exec.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected Out_of_fuel");
        Alcotest.(check string) "after a run out of fuel" fresh (probe ());
        (match Machine.Exec.run (lower (dirty_src_then "i = 0; print_int(1 % i);")) with
        | exception Machine.Exec.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected Runtime_error");
        Alcotest.(check string) "after a runtime error" fresh (probe ());
        let peek descs =
          String.trim (Machine.Exec.run (peek_page_rtl descs)).Machine.Exec.output
        in
        (* 0x3FF19999, the high half of 1.1 *)
        Alcotest.(check string) "the store reaches 0x2000" "1072798105" (peek straddle);
        Alcotest.(check string) "after a store across pages" "0" (peek []);
        (* the initializers land in the first words of the probe's g *)
        ignore (Machine.Exec.run (lower "int k = 77; double x = 2.5; int main() { return 0; }"));
        Alcotest.(check string) "after initialized globals" fresh (probe ()));
    Alcotest.test_case "an image costs only the pages a run touches" `Quick (fun () ->
        let rtl = lower probe_src in
        (* free the images of the domains earlier tests spawned *)
        Gc.full_major ();
        let before = vm_rss_kib () in
        (* a fresh domain makes its image on its first run *)
        let grown =
          Domain.join
            (Domain.spawn (fun () ->
                 List.iter
                   (fun m -> ignore (Machine.Simulate.run m rtl))
                   [ Machine.Simulate.R4600; Machine.Simulate.R10000 ];
                 vm_rss_kib () - before))
        in
        if grown >= 8 * 1024 then
          Alcotest.failf "the runs grew the resident set by %d KiB" grown);
    Alcotest.test_case "pooled variants on reused images" `Slow (fun () ->
        let w = Option.get (Workloads.Registry.find "023.eqntott") in
        let c =
          Harness.Pipeline.compile
            ~config:{ Harness.Pipeline.default_config with hli_cache = None }
            w.Workloads.Workload.source
        in
        let measure () = (Harness.Pipeline.measure c).Harness.Pipeline.reports in
        let sequential = measure () in
        let pool = Pool.create ~jobs:2 in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let on_pool f = Pool.map pool (fun _ -> f ()) [ 1; 2 ] in
            let same = List.for_all (( = ) sequential) in
            (* whole measures side by side, one per domain *)
            let first = on_pool measure in
            (* whichever domains ran these now hold dirty images *)
            ignore (on_pool (fun () -> Machine.Exec.run (lower dirty_src)));
            let second = on_pool measure in
            Alcotest.(check bool) "first pooled = sequential" true (same first);
            Alcotest.(check bool) "second pooled = sequential" true (same second);
            List.iter
              (Alcotest.(check string) "probe on a worker" "0\n0")
              (on_pool probe)));
  ]

(* ------------------------------------------------------------------ *)
(* Group membership: a schedule must be a permutation of its prefix    *)
(* ------------------------------------------------------------------ *)

(* [prog] with the first instruction of [main]'s entry block under a
   fresh uid: the same program, but no longer a reordering of [prog]'s
   blocks *)
let renumbered (prog : Backend.Rtl.program) =
  let open Backend in
  let renumber (f : Rtl.fn) =
    if f.Rtl.fname <> "main" then f
    else
      let blocks = Array.copy f.Rtl.blocks in
      let b = blocks.(f.Rtl.entry) in
      (match b.Rtl.insns with
      | i :: rest -> blocks.(f.Rtl.entry) <- { b with Rtl.insns = { i with Rtl.uid = i.Rtl.uid + 1000 } :: rest }
      | [] -> Alcotest.fail "main's entry block is empty");
      { f with Rtl.blocks }
  in
  { prog with Rtl.fns = List.map renumber prog.Rtl.fns }

let permutation_tests =
  let src = "int g;\nint main() {\n  g = 5;\n  print_int(g);\n  return 0;\n}\n" in
  [
    Alcotest.test_case "member admits the prefix and refuses a non-permutation" `Quick
      (fun () ->
        let prefix = lower src in
        let m = Machine.Simulate.member ~prefix Machine.Simulate.R4600 prefix in
        Alcotest.(check bool) "prefix joins" true (m.Machine.Simulate.m_rtl == prefix);
        match Machine.Simulate.member ~prefix Machine.Simulate.R4600 (renumbered prefix) with
        | _ -> Alcotest.fail "a renumbered schedule joined the group"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "check_order refuses a non-permutation" `Quick (fun () ->
        let prefix = lower src in
        Machine.Simulate.check_order ~prefix prefix;
        match Machine.Simulate.check_order ~prefix (renumbered prefix) with
        | () -> Alcotest.fail "a renumbered schedule passed the order check"
        | exception Invalid_argument _ -> ());
  ]

let () =
  Alcotest.run "machine"
    [
      ("exec", exec_tests);
      ("cache", cache_tests);
      ("timing", timing_tests);
      ("fuel", fuel_tests);
      ("decoder", decoder_tests);
      ("permutation", permutation_tests);
    ]
