(* Tests for the analysis library: affine forms, dependence tests,
   sections, points-to, call graph, REF/MOD. *)

open Srclang
open Analysis

let sym name = Symbol.fresh ~name ~ty:Types.Tint ~storage:Symbol.Local

(* fixed symbols shared by the affine tests *)
let i = sym "i"
let j = sym "j"
let k = sym "k"

let aff_testable = Alcotest.testable Affine.pp Affine.equal

(* ------------------------------------------------------------------ *)
(* Affine forms                                                        *)
(* ------------------------------------------------------------------ *)

let affine_tests =
  [
    Alcotest.test_case "add/sub cancel" `Quick (fun () ->
        let f = Affine.add (Affine.var i) (Affine.const 3) in
        let g = Affine.sub f (Affine.var i) in
        Alcotest.check aff_testable "3" (Affine.const 3) g);
    Alcotest.test_case "scale distributes" `Quick (fun () ->
        let f = Affine.add (Affine.var ~coeff:2 i) (Affine.const 5) in
        let g = Affine.scale 3 f in
        Alcotest.(check int) "coeff" 6 (Affine.coeff_of g i);
        Alcotest.(check (option int)) "const" None (Affine.const_value g));
    Alcotest.test_case "subst" `Quick (fun () ->
        (* (2i + j)[i := k + 1] = 2k + j + 2 *)
        let f = Affine.add (Affine.var ~coeff:2 i) (Affine.var j) in
        let r = Affine.add (Affine.var k) (Affine.const 1) in
        let g = Affine.subst f i r in
        Alcotest.(check int) "k coeff" 2 (Affine.coeff_of g k);
        Alcotest.(check int) "j coeff" 1 (Affine.coeff_of g j);
        Alcotest.(check int) "i coeff" 0 (Affine.coeff_of g i));
    Alcotest.test_case "of_expr affine" `Quick (fun () ->
        let p = Typecheck.program_of_string "int f(int i, int j) { return 2*i + j - 3; }" in
        let f = Option.get (Tast.find_func p "f") in
        match f.Tast.body with
        | [ { Tast.sdesc = Tast.Sreturn (Some e); _ } ] -> (
            match Affine.of_expr e with
            | Some a ->
                Alcotest.(check int) "const" (-3) a.Affine.const;
                Alcotest.(check int) "terms" 2 (List.length a.Affine.terms)
            | None -> Alcotest.fail "not affine")
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "of_expr rejects product" `Quick (fun () ->
        let p = Typecheck.program_of_string "int f(int i, int j) { return i * j; }" in
        let f = Option.get (Tast.find_func p "f") in
        match f.Tast.body with
        | [ { Tast.sdesc = Tast.Sreturn (Some e); _ } ] ->
            Alcotest.(check bool) "none" true (Affine.of_expr e = None)
        | _ -> Alcotest.fail "shape");
  ]

(* qcheck: algebraic laws of affine arithmetic *)
let gen_affine =
  QCheck.Gen.(
    int_range (-20) 20 >>= fun c ->
    int_range (-5) 5 >>= fun ci ->
    int_range (-5) 5 >>= fun cj ->
    return
      (Affine.add
         (Affine.add (Affine.var ~coeff:ci i) (Affine.var ~coeff:cj j))
         (Affine.const c)))

let arb_affine = QCheck.make ~print:Affine.to_string gen_affine

let affine_props =
  [
    QCheck.Test.make ~count:300 ~name:"a - a = 0" arb_affine (fun a ->
        Affine.equal (Affine.sub a a) Affine.zero);
    QCheck.Test.make ~count:300 ~name:"add commutes"
      (QCheck.pair arb_affine arb_affine) (fun (a, b) ->
        Affine.equal (Affine.add a b) (Affine.add b a));
    QCheck.Test.make ~count:300 ~name:"neg involutive" arb_affine (fun a ->
        Affine.equal (Affine.neg (Affine.neg a)) a);
    QCheck.Test.make ~count:300 ~name:"scale 2 = a + a" arb_affine (fun a ->
        Affine.equal (Affine.scale 2 a) (Affine.add a a));
  ]

(* ------------------------------------------------------------------ *)
(* Dependence tests                                                    *)
(* ------------------------------------------------------------------ *)

let loop_ctx_of r =
  match r.Frontir.Region.kind with
  | Frontir.Region.Loop_region { ivar = Some iv; lower; upper; inclusive; step } ->
      let aff e = Option.bind e Affine.of_expr in
      Some
        (Deptest.loop_ctx ~ivar:iv ?lower:(aff lower) ?upper:(aff upper)
           ~inclusive ?step ())
  | _ -> None

(* helper: extract the single loop's context and the memory accesses of a
   one-function program *)
let carried_of src =
  let p = Typecheck.program_of_string src in
  let f = List.hd p.Tast.funcs in
  let region = Frontir.Region.of_func f in
  let items, _ = Frontir.Itemgen.of_func f in
  let loop = List.hd region.Frontir.Region.subs in
  let ctx = Option.get (loop_ctx_of loop) in
  let accesses =
    List.filter_map Frontir.Itemgen.access_of items.Frontir.Itemgen.items
  in
  (ctx, accesses)

let outcome_testable = Alcotest.testable Deptest.pp_outcome (fun a b -> a = b)

let deptest_tests =
  [
    Alcotest.test_case "strong SIV distance 1" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[100];\nvoid f() { int i; for (i = 1; i < 100; i++) { a[i] = a[i-1]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "d=1"
              (Deptest.Dependent { distance = Some 1; definite = true })
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "self access independent across iterations" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[100];\nint b[100];\nvoid f() { int i; for (i = 0; i < 100; i++) { a[i] = b[i]; } }"
        in
        match accs with
        | [ _load; store ] ->
            Alcotest.check outcome_testable "independent" Deptest.Independent
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store store)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "ZIV distinct constants" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[100];\nvoid f() { int i; for (i = 0; i < 100; i++) { a[3] = a[7]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "independent" Deptest.Independent
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "scalar distance 1" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int s;\nvoid f() { int i; for (i = 0; i < 9; i++) { s = s + 1; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "d=1"
              (Deptest.Dependent { distance = Some 1; definite = true })
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "GCD independent (stride 2)" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[200];\nvoid f() { int i; for (i = 0; i < 50; i++) { a[2*i] = a[2*i+1]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "independent" Deptest.Independent
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "distance beyond trip count" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[100];\nvoid f() { int i; for (i = 0; i < 5; i++) { a[i] = a[i+50]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "independent" Deptest.Independent
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) load store)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "symbolic invariant offset cancels" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[200];\nvoid f(int n) { int i; for (i = 0; i < 50; i++) { a[i+n] = a[i+n-2]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "d=2"
              (Deptest.Dependent { distance = Some 2; definite = true })
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "non-invariant symbol is maybe" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[200];\nvoid f(int n) { int i; for (i = 0; i < 50; i++) { a[i+n] = a[i+n-2]; } }"
        in
        match accs with
        | [ load; store ] -> (
            match Deptest.carried ~ctx ~invariant:(fun _ -> false) store load with
            | Deptest.Dependent { distance = None; _ } -> ()
            | o -> Alcotest.failf "expected maybe, got %a" Deptest.pp_outcome o)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "step 2 halves the distance" `Quick (fun () ->
        let ctx, accs =
          carried_of
            "int a[200];\nvoid f() { int i; for (i = 0; i < 100; i = i + 2) { a[i] = a[i-4]; } }"
        in
        match accs with
        | [ load; store ] ->
            Alcotest.check outcome_testable "d=2 iterations"
              (Deptest.Dependent { distance = Some 2; definite = true })
              (Deptest.carried ~ctx ~invariant:(fun _ -> true) store load)
        | _ -> Alcotest.fail "accesses");
    Alcotest.test_case "same_location exact and different" `Quick (fun () ->
        let _, accs =
          carried_of
            "int a[100];\nvoid f() { int i; for (i = 1; i < 99; i++) { a[i] = a[i] + a[i-1]; } }"
        in
        match accs with
        | [ l1; l2; st ] ->
            Alcotest.(check bool) "a[i] ~ a[i]" true
              (Deptest.same_location ~invariant:(fun _ -> true) l1 st = Deptest.Same);
            Alcotest.(check bool) "a[i] vs a[i-1]" true
              (Deptest.same_location ~invariant:(fun _ -> true) l2 st = Deptest.Different)
        | _ -> Alcotest.fail "accesses");
  ]

(* ------------------------------------------------------------------ *)
(* Oracles: the Format printers and the two-pass likelihood            *)
(* ------------------------------------------------------------------ *)

(* The Format printers that [Affine.to_string] and [Section.to_string]
   replaced; class descriptions in the HLI must print the same text. *)
module Old_print = struct
  let pp_affine ppf (t : Affine.t) =
    if Affine.is_const t then Fmt.int ppf t.Affine.const
    else begin
      let first = ref true in
      if t.Affine.const <> 0 then begin
        Fmt.int ppf t.Affine.const;
        first := false
      end;
      List.iter
        (fun (v, c) ->
          if !first then begin
            first := false;
            if c = 1 then Symbol.pp ppf v
            else if c = -1 then Fmt.pf ppf "-%a" Symbol.pp v
            else Fmt.pf ppf "%d*%a" c Symbol.pp v
          end
          else if c = 1 then Fmt.pf ppf "+%a" Symbol.pp v
          else if c = -1 then Fmt.pf ppf "-%a" Symbol.pp v
          else if c > 0 then Fmt.pf ppf "+%d*%a" c Symbol.pp v
          else Fmt.pf ppf "%d*%a" c Symbol.pp v)
        t.Affine.terms
    end

  let pp_bound ppf = function
    | None -> Fmt.string ppf "?"
    | Some f -> pp_affine ppf f

  let pp_section ppf = function
    | Section.Whole -> Fmt.string ppf "<whole>"
    | Section.Dims dims ->
        List.iter
          (fun d -> Fmt.pf ppf "[%a..%a]" pp_bound d.Section.lo pp_bound d.Section.hi)
          dims

  let affine t = Fmt.str "%a" pp_affine t
  let section t = Fmt.str "%a" pp_section t
end

(* Symbols with ids of one to four digits, so the printed ids vary in
   length. *)
let print_syms =
  Array.init 12 (fun n ->
      {
        Symbol.id = [| 3; 47; 512; 9999 |].(n mod 4) + n;
        name = (if n mod 2 = 0 then "v" else "x_1");
        ty = Types.Tint;
        storage = Symbol.Local;
        addr_taken = false;
      })

(* Raw forms, including a zero coefficient and unsorted terms, so the
   printers are compared on more than the normalized shapes. *)
let gen_coeff =
  QCheck.Gen.(
    frequency
      [ (3, return 1); (3, return (-1)); (1, return 0); (3, int_range (-120) 120) ])

let gen_raw_affine =
  QCheck.Gen.(
    frequency [ (2, return 0); (1, oneofl [ 1; -1 ]); (3, int_range (-5000) 5000) ]
    >>= fun const ->
    int_range 0 4 >>= fun n ->
    list_repeat n (pair (oneofa print_syms) gen_coeff) >>= fun terms ->
    return { Affine.const; terms })

let gen_section =
  QCheck.Gen.(
    let bound = frequency [ (1, return None); (4, map Option.some gen_raw_affine) ] in
    frequency
      [
        (1, return Section.Whole);
        ( 5,
          int_range 0 3 >>= fun n ->
          list_repeat n (pair bound bound) >>= fun ds ->
          return (Section.Dims (List.map (fun (lo, hi) -> { Section.lo; hi }) ds)) );
      ])

let printer_props =
  [
    QCheck.Test.make ~count:2000 ~name:"Affine.to_string = Format printer"
      (QCheck.make ~print:Old_print.affine gen_raw_affine) (fun a ->
        Affine.to_string a = Old_print.affine a);
    QCheck.Test.make ~count:2000 ~name:"Section.to_string = Format printer"
      (QCheck.make ~print:Old_print.section gen_section) (fun s ->
        Section.to_string s = Old_print.section s);
  ]

(* [Deptest.carried] as it was before per-mille grades were threaded
   through it: the oracle for its outcome now that they are gone. *)
module Old_deptest = struct
  open Deptest

  type dim_result =
    | Dim_independent
    | Dim_any_distance  (* dimension does not constrain the distance *)
    | Dim_distance of int  (* dependence only possible at this exact distance *)
    | Dim_maybe  (* may be dependent, distance not determined *)

  let analyze_dim ~ctx ~invariant (fa : Affine.t) (fb : Affine.t) : dim_result =
    let is_inner v = List.exists (Symbol.equal v) ctx.inner_ivars in
    let ca, ra = Affine.split fa ctx.ivar in
    let cb, rb = Affine.split fb ctx.ivar in
    (* Inner ivars are distinct unknowns on each side: collect their
       coefficients separately and strip them before differencing. *)
    let strip_inner t =
      let inner = List.filter (fun (v, _) -> is_inner v) t.Affine.terms in
      let rest = { t with Affine.terms = List.filter (fun (v, _) -> not (is_inner v)) t.Affine.terms } in
      (List.map snd inner, rest)
    in
    let inner_a, ra = strip_inner ra in
    let inner_b, rb = strip_inner rb in
    (* A non-invariant symbol has possibly different values at the two
       accesses, so it must not cancel between ra and rb: test wildness on
       the two sides before differencing. *)
    let has_wild =
      List.exists (fun v -> not (invariant v)) (Affine.symbols ra)
      || List.exists (fun v -> not (invariant v)) (Affine.symbols rb)
    in
    let rest = Affine.sub ra rb in
    if has_wild then Dim_maybe
    else if not (Affine.is_const rest) then
      (* invariant symbols with unequal coefficients: symbolic difference *)
      Dim_maybe
    else begin
      let r = rest.Affine.const in
      let inner_coeffs = inner_a @ List.map (fun c -> -c) inner_b in
      if inner_coeffs = [] && ca = cb then begin
        (* strong SIV (or ZIV when ca = 0): ca * delta = r, and the
           iteration distance k satisfies delta = k * step. *)
        if ca = 0 then if r = 0 then Dim_any_distance else Dim_independent
        else
          match ctx.step with
          | Some s when s <> 0 ->
              let denom = ca * s in
              if r mod denom <> 0 then Dim_independent
              else
                let k = r / denom in
                if k < 1 then Dim_independent (* backward or same-iteration *)
                else begin
                  match max_distance ctx with
                  | Some dmax when k > dmax -> Dim_independent
                  | _ -> Dim_distance k
                end
          | _ -> if r = 0 then Dim_independent else Dim_maybe
      end
      else begin
        (* General SIV/MIV over unknowns i, delta, and renamed inner ivars:
           (ca - cb)*i - cb*delta + sum(inner terms) + r = 0.
           GCD solvability filter, then Banerjee bounds when the tested
           loop's range is constant and no inner ivars intrude. *)
        let coeffs =
          List.filter (fun c -> c <> 0) ((ca - cb) :: cb :: inner_coeffs)
        in
        let g = gcd_list coeffs in
        if g <> 0 && r mod g <> 0 then Dim_independent
        else begin
          let lo_const =
            match ctx.lower with Some lo -> Affine.const_value lo | None -> None
          in
          match (ctx.trip, lo_const, ctx.step) with
          | Some trip, Some lo, Some 1 when inner_coeffs = [] ->
              let dmax = max 0 (trip - 1) in
              if dmax = 0 then Dim_independent
              else begin
                (* lhs(i, d) = (ca - cb)*i - cb*d + r with
                   i in [lo, lo + dmax - d], d in [1, dmax] *)
                let c1 = ca - cb and c2 = -cb in
                let candidates = ref [] in
                List.iter
                  (fun d ->
                    let i_lo = lo and i_hi = lo + dmax - d in
                    if i_hi >= i_lo then begin
                      candidates := ((c1 * i_lo) + (c2 * d) + r) :: !candidates;
                      candidates := ((c1 * i_hi) + (c2 * d) + r) :: !candidates
                    end)
                  [ 1; dmax ];
                match !candidates with
                | [] -> Dim_independent
                | cs ->
                    let mn = List.fold_left min max_int cs
                    and mx = List.fold_left max min_int cs in
                    if mn > 0 || mx < 0 then Dim_independent else Dim_maybe
              end
          | _ -> Dim_maybe
        end
      end
    end

  let carried ~ctx ~invariant (a : Frontir.Access.t) (b : Frontir.Access.t) : outcome =
    let subs_a = affine_subscripts a and subs_b = affine_subscripts b in
    if List.length subs_a <> List.length subs_b then
      (* differently-shaped views of the same memory: give up *)
      Unknown
    else if subs_a = [] then
      (* scalar location: every iteration touches it; minimal distance 1 *)
      Dependent { distance = Some 1; definite = true }
    else begin
      let dims =
        List.map2
          (fun fa fb ->
            match (fa, fb) with
            | Some fa, Some fb -> analyze_dim ~ctx ~invariant fa fb
            | _ -> Dim_maybe)
          subs_a subs_b
      in
      if List.exists (fun d -> d = Dim_independent) dims then Independent
      else begin
        (* Combine exact distances: contradictions mean independence. *)
        let distances =
          List.filter_map (function Dim_distance d -> Some d | _ -> None) dims
        in
        let all_exact_or_free =
          List.for_all
            (function Dim_distance _ | Dim_any_distance -> true | _ -> false)
            dims
        in
        match distances with
        | [] ->
            if List.for_all (fun d -> d = Dim_any_distance) dims then
              Dependent { distance = Some 1; definite = true }
            else Dependent { distance = None; definite = false }
        | d :: rest ->
            if List.for_all (fun x -> x = d) rest then
              if all_exact_or_free then Dependent { distance = Some d; definite = true }
              else Dependent { distance = Some d; definite = false }
            else Independent
      end
    end

end

(* Random accesses over one tested ivar [ri], an inner ivar [rj] and two
   other scalars [rn], [rm]; subscripts are affine sums or, now and
   then, a non-affine product. *)
let ri = sym "i"
let rj = sym "j"
let rn = sym "n"
let rm = sym "m"

let int_expr desc = { Tast.desc; ty = Types.Tint; loc = Loc.dummy }
let var_expr s =
  int_expr (Tast.Lval { Tast.ldesc = Tast.Lvar s; lty = Types.Tint; lloc = Loc.dummy })

let gen_subscript =
  QCheck.Gen.(
    let term =
      pair (oneofl [ ri; rj; rn; rm ])
        (frequency [ (4, oneofl [ 1; -1 ]); (2, int_range (-4) 4) ])
      >|= fun (s, c) ->
      int_expr (Tast.Binop (Ast.Mul, int_expr (Tast.Const_int c), var_expr s))
    in
    frequency
      [
        ( 8,
          int_range (-6) 6 >>= fun c ->
          list_size (int_range 0 3) term >|= fun ts ->
          List.fold_left
            (fun acc t -> int_expr (Tast.Binop (Ast.Add, acc, t)))
            (int_expr (Tast.Const_int c)) ts );
        (1, return (int_expr (Tast.Binop (Ast.Mul, var_expr ri, var_expr rn))));
      ])

let gen_access ~dims =
  QCheck.Gen.(
    list_repeat dims gen_subscript >>= fun subscripts ->
    bool >|= fun is_store ->
    { Frontir.Access.base = Frontir.Access.Direct rm; subscripts; elem_size = 4;
      is_store })

let gen_loop_ctx =
  QCheck.Gen.(
    let aff =
      frequency
        [
          (1, return None);
          (1, return (Some (Affine.var rn)));
          (4, map (fun c -> Some (Affine.const c)) (int_range (-3) 40));
        ]
    in
    aff >>= fun lower ->
    aff >>= fun upper ->
    bool >>= fun inclusive ->
    frequency
      [ (1, return None); (4, return (Some 1));
        (1, oneofl [ Some 2; Some (-1); Some 0; Some 3 ]) ]
    >>= fun step ->
    oneofl [ []; [ rj ] ] >|= fun inner_ivars ->
    Deptest.loop_ctx ~inner_ivars ~ivar:ri ?lower ?upper ~inclusive ?step ())

let pp_access = Fmt.to_to_string Frontir.Access.pp

(* [a] with a constant added to every subscript: equal coefficients on
   both sides, the strong SIV shape *)
let gen_shifted (a : Frontir.Access.t) =
  QCheck.Gen.(
    list_repeat (List.length a.Frontir.Access.subscripts) (int_range (-6) 6) >>= fun ks ->
    bool >|= fun is_store ->
    let shift e k = int_expr (Tast.Binop (Ast.Add, e, int_expr (Tast.Const_int k))) in
    { a with Frontir.Access.subscripts = List.map2 shift a.Frontir.Access.subscripts ks;
      is_store })

(* one loop, one invariance predicate, one access pair *)
let gen_pair_case =
  QCheck.Gen.(
    gen_loop_ctx >>= fun ctx ->
    oneofl [ `All; `None; `Not_m ] >>= fun inv ->
    int_range 0 3 >>= fun dims ->
    gen_access ~dims >>= fun a ->
    frequency
      [
        (2, gen_shifted a);
        (2, gen_access ~dims);
        (1, int_range 0 3 >>= fun dims -> gen_access ~dims);
      ]
    >|= fun b -> (ctx, inv, a, b))

let invariant_of = function
  | `All -> fun _ -> true
  | `None -> fun _ -> false
  | `Not_m -> fun s -> not (Symbol.equal s rm)

let same_as_old ~ctx ~invariant a b =
  Deptest.carried ~ctx ~invariant a b = Old_deptest.carried ~ctx ~invariant a b

(* Every pair of accesses in every loop of the 14 workloads, under the
   loop context TBLCONST builds and three invariance predicates: the
   representative pairs [class_lcdd] tests are among them. *)
let workload_pairs_same () =
  List.iter
    (fun w ->
      let prog = Typecheck.program_of_string w.Workloads.Workload.source in
      List.iter
        (fun f ->
          let u, _ = Frontir.Itemgen.of_func f in
          List.iter
            (fun (r : Frontir.Region.t) ->
              match Hligen.Tblconst.loop_ctx_of_region r with
              | None -> ()
              | Some ctx ->
                  let mods = Hligen.Tblconst.modified_scalars r in
                  let accs =
                    List.filter_map Frontir.Itemgen.access_of
                      (Frontir.Itemgen.items_within u r)
                  in
                  List.iter
                    (fun invariant ->
                      List.iter
                        (fun a ->
                          List.iter
                            (fun b ->
                              if not (same_as_old ~ctx ~invariant a b) then
                                Alcotest.failf "%s: %s vs %s" w.Workloads.Workload.name
                                  (pp_access a) (pp_access b))
                            accs)
                        accs)
                    [
                      (fun _ -> true);
                      (fun _ -> false);
                      (fun s -> not (Symbol.Set.mem s mods || s.Symbol.addr_taken));
                    ])
            (Frontir.Region.all (Frontir.Region.of_func f)))
        prog.Tast.funcs)
    Workloads.Registry.all

let deptest_oracle_tests =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000
       ~name:"carried = old carried on random pairs"
       (QCheck.make
          ~print:(fun (_, _, a, b) -> pp_access a ^ " vs " ^ pp_access b)
          gen_pair_case)
       (fun (ctx, inv, a, b) -> same_as_old ~ctx ~invariant:(invariant_of inv) a b))
  :: [
       Alcotest.test_case "carried = old carried on every workload loop pair" `Quick
         workload_pairs_same;
     ]

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let section_tests =
  [
    Alcotest.test_case "widen over ivar" `Quick (fun () ->
        let s = Section.of_point [ Affine.var i ] in
        let w =
          Section.widen_over ~ivar:i ~iv_lo:(Some (Affine.const 1))
            ~iv_hi:(Some (Affine.const 9)) s
        in
        Alcotest.(check bool) "same as [1..9]" true
          (Section.same w
             (Section.Dims
                [ { Section.lo = Some (Affine.const 1); hi = Some (Affine.const 9) } ])));
    Alcotest.test_case "widen flips for negative coeff" `Quick (fun () ->
        let s = Section.of_point [ Affine.var ~coeff:(-1) i ] in
        let w =
          Section.widen_over ~ivar:i ~iv_lo:(Some (Affine.const 1))
            ~iv_hi:(Some (Affine.const 9)) s
        in
        Alcotest.(check bool) "[-9..-1]" true
          (Section.same w
             (Section.Dims
                [ { Section.lo = Some (Affine.const (-9)); hi = Some (Affine.const (-1)) } ])));
    Alcotest.test_case "disjoint points" `Quick (fun () ->
        let a = Section.of_point [ Affine.const 3 ] in
        let b = Section.of_point [ Affine.const 4 ] in
        Alcotest.(check bool) "3 vs 4" true (Section.disjoint a b);
        Alcotest.(check bool) "3 vs 3" false (Section.disjoint a a));
    Alcotest.test_case "join covers both" `Quick (fun () ->
        let a = Section.of_point [ Affine.const 3 ] in
        let b = Section.of_point [ Affine.const 7 ] in
        let j = Section.join a b in
        Alcotest.(check bool) "covers 5" false
          (Section.disjoint j (Section.of_point [ Affine.const 5 ])));
    Alcotest.test_case "whole never disjoint" `Quick (fun () ->
        Alcotest.(check bool) "whole" false
          (Section.disjoint Section.Whole (Section.of_point [ Affine.const 0 ])));
    Alcotest.test_case "symbolic bounds only comparable when const diff" `Quick
      (fun () ->
        let a = Section.of_point [ Affine.var i ] in
        let b = Section.of_point [ Affine.add (Affine.var i) (Affine.const 2) ] in
        let c = Section.of_point [ Affine.var j ] in
        Alcotest.(check bool) "i vs i+2 disjoint" true (Section.disjoint a b);
        Alcotest.(check bool) "i vs j unknown" false (Section.disjoint a c));
  ]

(* ------------------------------------------------------------------ *)
(* Points-to and REF/MOD                                               *)
(* ------------------------------------------------------------------ *)

let interproc_src =
  {|
int a[10];
int b[10];
int g;

void writer(int *p)
{
  p[0] = 1;
}

int reader(int *q)
{
  return q[1];
}

void caller()
{
  writer(a);
  g = reader(b);
}

int pure_leaf(int x)
{
  return x * 2;
}

int main()
{
  caller();
  return pure_leaf(g);
}
|}

let pointsto_tests =
  [
    Alcotest.test_case "params point at arguments" `Quick (fun () ->
        let p = Typecheck.program_of_string interproc_src in
        let pt = Pointsto.analyze p in
        let writer = Option.get (Tast.find_func p "writer") in
        let param = List.hd writer.Tast.params in
        let a_sym = fst (List.nth p.Tast.globals 0) in
        let b_sym = fst (List.nth p.Tast.globals 1) in
        Alcotest.(check bool) "p -> a" true (Pointsto.may_point_at pt param a_sym);
        Alcotest.(check bool) "p not-> b" false (Pointsto.may_point_at pt param b_sym));
    Alcotest.test_case "refmod distinguishes ref and mod" `Quick (fun () ->
        let p = Typecheck.program_of_string interproc_src in
        let pt = Pointsto.analyze p in
        let rm = Refmod.analyze p pt in
        let a_sym = fst (List.nth p.Tast.globals 0) in
        let b_sym = fst (List.nth p.Tast.globals 1) in
        let g_sym = fst (List.nth p.Tast.globals 2) in
        Alcotest.(check bool) "writer mods a" true
          (Refmod.call_acc rm ~callee:"writer" a_sym = Refmod.Acc_mod);
        Alcotest.(check bool) "reader refs b" true
          (Refmod.call_acc rm ~callee:"reader" b_sym = Refmod.Acc_ref);
        Alcotest.(check bool) "pure_leaf touches nothing" true
          (Refmod.call_acc rm ~callee:"pure_leaf" g_sym = Refmod.Acc_none);
        Alcotest.(check bool) "caller mods a transitively" true
          (Refmod.call_acc rm ~callee:"caller" a_sym = Refmod.Acc_mod);
        Alcotest.(check bool) "caller touches g" true
          (match Refmod.call_acc rm ~callee:"caller" g_sym with
          | Refmod.Acc_mod | Refmod.Acc_refmod -> true
          | _ -> false));
    Alcotest.test_case "builtins are effect-free" `Quick (fun () ->
        let p = Typecheck.program_of_string interproc_src in
        let pt = Pointsto.analyze p in
        let rm = Refmod.analyze p pt in
        let g_sym = fst (List.nth p.Tast.globals 2) in
        Alcotest.(check bool) "sqrt" true
          (Refmod.call_acc rm ~callee:"sqrt" g_sym = Refmod.Acc_none));
    Alcotest.test_case "callgraph" `Quick (fun () ->
        let p = Typecheck.program_of_string interproc_src in
        let cg = Callgraph.build p in
        Alcotest.(check (list string)) "caller callees" [ "reader"; "writer" ]
          (Callgraph.callees cg "caller");
        Alcotest.(check bool) "main reaches writer" true
          (Callgraph.reaches cg ~from:"main" ~target:"writer");
        Alcotest.(check bool) "no recursion" false (Callgraph.is_recursive cg "main"));
    Alcotest.test_case "recursion detected and refmod converges" `Quick (fun () ->
        let src =
          "int g;\nint fact(int n) { g = g + 1; if (n < 2) { return 1; } return n * fact(n - 1); }\nint main() { return fact(5); }"
        in
        let p = Typecheck.program_of_string src in
        let cg = Callgraph.build p in
        Alcotest.(check bool) "recursive" true (Callgraph.is_recursive cg "fact");
        let pt = Pointsto.analyze p in
        let rm = Refmod.analyze p pt in
        let g_sym = fst (List.hd p.Tast.globals) in
        Alcotest.(check bool) "fact mods g" true
          (match Refmod.call_acc rm ~callee:"fact" g_sym with
          | Refmod.Acc_mod | Refmod.Acc_refmod -> true
          | _ -> false));
    Alcotest.test_case "escaped pointers go conservative" `Quick (fun () ->
        let src =
          "int a[4];\nint *box[2];\nvoid f() { box[0] = a; }\nint g() { int *p; p = box[0]; return p[0]; }\nint main() { f(); return g(); }"
        in
        let p = Typecheck.program_of_string src in
        let pt = Pointsto.analyze p in
        let gf = Option.get (Tast.find_func p "g") in
        let psym = List.hd gf.Tast.locals in
        Alcotest.(check bool) "p is universe" true
          (Pointsto.points_to pt psym = Pointsto.Universe));
  ]

(* ------------------------------------------------------------------ *)
(* Interprocedural fingerprints (the HLI cache key)                    *)
(* ------------------------------------------------------------------ *)

(* leaf's REF/MOD skeleton is a global write; caller calls leaf; lone
   is unrelated.  The edits below probe exactly the propagation rules
   the per-function cache relies on. *)
let fp_src body =
  "int g;\n"
  ^ Printf.sprintf "int leaf(int n) { %s }\n" body
  ^ "int caller(int n) { return leaf(n + 1); }\n"
  ^ "int lone(int n) { return n * 3; }\n"
  ^ "int main() { return caller(2) + lone(1); }\n"

let fps_of body =
  Fingerprint.of_program (Typecheck.program_of_string (fp_src body))

let fingerprint_tests =
  [
    Alcotest.test_case "deterministic across identical programs" `Quick
      (fun () ->
        let a = fps_of "g = n; return n + 1;" in
        let b = fps_of "g = n; return n + 1;" in
        List.iter
          (fun f ->
            Alcotest.(check string)
              f
              (Fingerprint.func_hex a f)
              (Fingerprint.func_hex b f))
          [ "leaf"; "caller"; "lone"; "main" ]);
    Alcotest.test_case "constant edit stays intraprocedural" `Quick (fun () ->
        (* a body tweak that leaves leaf's access skeleton alone must
           invalidate leaf and nothing else — this is the fan-in bound
           the edit-storm numbers depend on *)
        let a = fps_of "g = n; return n + 1;" in
        let b = fps_of "g = n; return n + 2;" in
        Alcotest.(check bool) "leaf changes" false
          (Fingerprint.func_hex a "leaf" = Fingerprint.func_hex b "leaf");
        Alcotest.(check string) "caller stable"
          (Fingerprint.func_hex a "caller")
          (Fingerprint.func_hex b "caller");
        Alcotest.(check string) "lone stable"
          (Fingerprint.func_hex a "lone")
          (Fingerprint.func_hex b "lone"));
    Alcotest.test_case "callee REF/MOD edit invalidates the caller" `Quick
      (fun () ->
        (* dropping the global write changes leaf's direct REF/MOD
           skeleton, which feeds every transitive caller's key *)
        let a = fps_of "g = n; return n + 1;" in
        let b = fps_of "return n + 1;" in
        Alcotest.(check bool) "leaf changes" false
          (Fingerprint.func_hex a "leaf" = Fingerprint.func_hex b "leaf");
        Alcotest.(check bool) "caller changes" false
          (Fingerprint.func_hex a "caller" = Fingerprint.func_hex b "caller");
        Alcotest.(check bool) "main changes transitively" false
          (Fingerprint.func_hex a "main" = Fingerprint.func_hex b "main");
        Alcotest.(check string) "lone stable"
          (Fingerprint.func_hex a "lone")
          (Fingerprint.func_hex b "lone"));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("affine", affine_tests);
      ("affine-props", List.map QCheck_alcotest.to_alcotest affine_props);
      ("printers", List.map QCheck_alcotest.to_alcotest printer_props);
      ("deptest", deptest_tests);
      ("deptest-oracle", deptest_oracle_tests);
      ("section", section_tests);
      ("interprocedural", pointsto_tests);
      ("fingerprint", fingerprint_tests);
    ]
