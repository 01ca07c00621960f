(* Differential testing of the indexed, memoized query engine
   (Hli_core.Query) against the straight-line reference oracle
   (Query_ref).  Both engines are handed the same entries —
   the paper's Figure 2 program, two real workloads, and randomized
   kernels — and every basic query must agree answer-by-answer,
   including probes with ids the tables never mention.  A second group
   pins the per-kind query counters to identical totals for the two
   engines, and a third proves the memo caches are emptied by
   maintenance transactions. *)

module Q = Hli_core.Query
module R = Query_ref
module T = Hli_core.Tables

let equiv_result = Alcotest.testable Q.pp_equiv_result ( = )
let call_acc = Alcotest.testable Q.pp_call_acc ( = )
let lcdd_result = Alcotest.(option (list (testable T.pp_lcdd ( = ))))

(* the paper's Figure 2 program (same source as test_hli.ml) *)
let fig2 =
  {|
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

let entries_of_source src =
  let prog = Srclang.Typecheck.program_of_string src in
  Harness.Pipeline.build_hli_entries prog

let fig2_entry () = List.hd (entries_of_source fig2)

let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let calls_of_entry (e : T.hli_entry) =
  List.concat_map
    (fun le ->
      List.filter_map
        (fun it -> if it.T.acc = T.Acc_call then Some it.T.item_id else None)
        le.T.items)
    e.T.line_table

(* Every basic query, asked of both engines over all item pairs plus
   ids the entry never defines (the engines must agree on "don't
   know" answers too).  [cap] bounds the O(n^2) pair sweeps so the
   randomized property stays fast. *)
let diff_entry ?(cap = 28) (e : T.hli_entry) =
  let qi = Q.build e and ri = R.build e in
  let items = take cap (List.sort_uniq compare (T.all_items e)) in
  let probe = items @ [ 99991; 0 ] in
  List.iter
    (fun a ->
      Alcotest.(check (option int))
        (Printf.sprintf "region_of %d" a)
        (R.get_region_of_item ri a)
        (Q.get_region_of_item qi a))
    probe;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check equiv_result
            (Printf.sprintf "equiv_acc %d %d" a b)
            (R.get_equiv_acc ri a b) (Q.get_equiv_acc qi a b))
        probe)
    probe;
  List.iter
    (fun call ->
      List.iter
        (fun mem ->
          Alcotest.check call_acc
            (Printf.sprintf "call_acc call:%d mem:%d" call mem)
            (R.get_call_acc ri ~call ~mem)
            (Q.get_call_acc qi ~call ~mem))
        probe)
    (calls_of_entry e @ [ 99991 ]);
  let rids = List.map (fun r -> r.T.region_id) e.T.regions @ [ 99991 ] in
  let small = take 12 probe in
  List.iter
    (fun rid ->
      (* alias takes class ids: sweep a small dense range so hits and
         misses both occur *)
      for a = 0 to 10 do
        for b = 0 to 10 do
          Alcotest.(check bool)
            (Printf.sprintf "alias r:%d %d %d" rid a b)
            (R.get_alias ri ~rid a b) (Q.get_alias qi ~rid a b)
        done
      done;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.check lcdd_result
                (Printf.sprintf "lcdd r:%d %d %d" rid a b)
                (R.get_lcdd ri ~rid a b) (Q.get_lcdd qi ~rid a b))
            small)
        small)
    rids;
  (* a second sweep over the now-warm memo must not change answers *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check equiv_result
            (Printf.sprintf "warm equiv_acc %d %d" a b)
            (R.get_equiv_acc ri a b) (Q.get_equiv_acc qi a b))
        probe)
    (take 8 probe)

(* Random kernels: same shape as test_random.ml's generator (each dune
   test executable is standalone, so the generator is duplicated
   rather than shared). *)
let array_names = [| "aa"; "bb"; "cc" |]

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
        (oneofl [ 0; 1; 2 ] >>= fun a ->
         gen_subscript >>= fun s ->
         gen_operand >>= fun x ->
         gen_operand >>= fun y ->
         oneofl [ "+"; "-"; "*" ] >>= fun op ->
         return
           (Printf.sprintf "    %s[%s] = %s %s %s;" array_names.(a) s x op y));
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
  for (i = 0; i < 64; i++)
  {
    aa[i] = i * 3 + 1;
  }
  kernel(aa, bb);
  return 0;
}
|}
         (3 + trip) body))

let arb_program = QCheck.make ~print:(fun s -> s) gen_program

let differential_tests =
  [
    Alcotest.test_case "figure 2 entry: engines agree on every query" `Quick
      (fun () -> diff_entry (fig2_entry ()));
    Alcotest.test_case "workload entries: engines agree on every query"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let w = Option.get (Workloads.Registry.find name) in
            List.iter (diff_entry ~cap:18)
              (entries_of_source w.Workloads.Workload.source))
          [ "wc"; "103.su2cor" ]);
  ]

let random_props =
  [
    QCheck.Test.make ~count:12
      ~name:"randomized entries: engines agree on every query" arb_program
      (fun src ->
        List.iter diff_entry (entries_of_source src);
        true);
  ]

(* The memoized engine must bump the per-kind counters once per
   logical query, hits included — running an identical stream through
   either engine must leave identical totals. *)
let counter_parity_test =
  Alcotest.test_case "per-kind counters match across engines" `Quick
    (fun () ->
      let e = fig2_entry () in
      let items = take 10 (List.sort_uniq compare (T.all_items e)) in
      let stream (type a) (build : T.hli_entry -> a)
          (equiv : a -> int -> int -> Q.equiv_result)
          (call : a -> call:int -> mem:int -> Q.call_acc_result)
          (alias : a -> rid:int -> int -> int -> bool)
          (lcdd : a -> rid:int -> int -> int -> T.lcdd_entry list option)
          (region_of : a -> int -> int option) =
        let idx = build e in
        Q.reset_query_counters ();
        (* repeats make the memoized engine answer mostly from cache *)
        for _ = 1 to 3 do
          List.iter
            (fun a ->
              ignore (region_of idx a);
              List.iter
                (fun b ->
                  ignore (equiv idx a b);
                  ignore (call idx ~call:a ~mem:b);
                  ignore (alias idx ~rid:2 a b);
                  ignore (lcdd idx ~rid:2 a b))
                items)
            items
        done;
        Q.query_counters ()
      in
      let memoized =
        stream Q.build Q.get_equiv_acc
          (fun i ~call ~mem -> Q.get_call_acc i ~call ~mem)
          (fun i ~rid a b -> Q.get_alias i ~rid a b)
          (fun i ~rid a b -> Q.get_lcdd i ~rid a b)
          Q.get_region_of_item
      in
      let reference =
        stream R.build R.get_equiv_acc
          (fun i ~call ~mem -> R.get_call_acc i ~call ~mem)
          (fun i ~rid a b -> R.get_alias i ~rid a b)
          (fun i ~rid a b -> R.get_lcdd i ~rid a b)
          R.get_region_of_item
      in
      List.iter2
        (fun (kind, n) (kind', n') ->
          Alcotest.(check string) "kind order" kind kind';
          Alcotest.(check int) kind n n')
        memoized reference;
      (* and the stream really exercised the memo *)
      let n = List.length items in
      Alcotest.(check int) "equiv_acc total" (3 * n * n)
        (List.assoc "equiv_acc" memoized))

let maintenance_tests =
  [
    Alcotest.test_case "Maintain edits empty watching memos" `Quick (fun () ->
        let e = fig2_entry () in
        let idx = Q.build e in
        let m = Hli_core.Maintain.start ~index:idx e in
        let items = take 8 (List.sort_uniq compare (T.all_items e)) in
        List.iter
          (fun a -> List.iter (fun b -> ignore (Q.get_equiv_acc idx a b)) items)
          items;
        Alcotest.(check bool) "memo is warm" true (Q.memo_size idx > 0);
        Hli_core.Maintain.delete_item m 6;
        Alcotest.(check int) "memo emptied by delete_item" 0 (Q.memo_size idx);
        (* refill, then a generating edit must empty it again *)
        List.iter
          (fun a -> List.iter (fun b -> ignore (Q.get_equiv_acc idx a b)) items)
          items;
        Alcotest.(check bool) "memo warm again" true (Q.memo_size idx > 0);
        ignore (Hli_core.Maintain.gen_item m ~like:9 ~line:19);
        Alcotest.(check int) "memo emptied by gen_item" 0 (Q.memo_size idx));
    Alcotest.test_case "post-transaction answers still match the oracle"
      `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        Hli_core.Maintain.delete_item m 6;
        let e', _ = Hli_core.Maintain.commit m in
        diff_entry e');
  ]

let () =
  Alcotest.run "query-equiv"
    [
      ("differential", differential_tests);
      ("randomized", List.map QCheck_alcotest.to_alcotest random_props);
      ("counters", [ counter_parity_test ]);
      ("maintenance", maintenance_tests);
    ]
