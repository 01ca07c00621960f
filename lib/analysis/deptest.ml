(** Data dependence tests for subscripted array accesses.

    Implements the classical hierarchy used by parallelizing front ends
    (and by SUIF, which the paper's implementation calls into):

    - {b ZIV}: both subscripts free of the tested loop's induction
      variable — a constant difference decides immediately;
    - {b strong SIV}: equal coefficients on the induction variable —
      exact distance [d = diff / c] when divisible, else independence;
    - {b GCD test}: a linear Diophantine solvability filter for the
      general case;
    - {b Banerjee bounds}: interval evaluation of the dependence equation
      over known loop ranges to prove independence when the GCD test
      cannot.

    Results distinguish definite dependence with a known distance (what
    the LCDD table stores), possible dependence ("maybe", distance
    unknown), and proven independence. *)

open Srclang

(** Context for one tested loop. *)
type loop_ctx = {
  ivar : Symbol.t;
  lower : Affine.t option;  (** first value of [ivar], if known *)
  upper : Affine.t option;  (** bound from the loop condition *)
  inclusive : bool;  (** [<=] bound (vs [<]) *)
  step : int option;
  (* Induction variables of loops nested inside the tested loop; they
     vary freely between the two accesses. *)
  inner_ivars : Symbol.t list;
  (* Trip count when derivable from constant bounds. *)
  trip : int option;
}

(** Max iteration distance the loop can realize, when bounds are
    constants. *)
let max_distance ctx =
  match ctx.trip with Some t when t >= 1 -> Some (t - 1) | _ -> None

let loop_ctx ?(inner_ivars = []) ~ivar ?lower ?upper ?(inclusive = false) ?step () =
  let trip =
    match (lower, upper, step) with
    | Some lo, Some hi, Some s when s <> 0 -> (
        match (Affine.const_value lo, Affine.const_value hi) with
        | Some l, Some h ->
            let h = if inclusive then h else if s > 0 then h - 1 else h + 1 in
            let n = ((h - l) / s) + 1 in
            Some (max n 0)
        | _ -> None)
    | _ -> None
  in
  { ivar; lower; upper; inclusive; step; inner_ivars; trip }

(** Outcome of a dependence test between two accesses. *)
type outcome =
  | Independent
  | Dependent of { distance : int option; definite : bool }
      (** dependence from the earlier to the later iteration; [distance]
          is in iterations of the tested loop when exactly known *)
  | Unknown  (** test not applicable (non-affine, unbounded symbols) *)

let pp_outcome ppf = function
  | Independent -> Fmt.string ppf "independent"
  | Dependent { distance = Some d; definite } ->
      Fmt.pf ppf "dependent(d=%d,%s)" d (if definite then "definite" else "maybe")
  | Dependent { distance = None; definite } ->
      Fmt.pf ppf "dependent(d=?,%s)" (if definite then "definite" else "maybe")
  | Unknown -> Fmt.string ppf "unknown"

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let gcd_list = function [] -> 0 | x :: rest -> List.fold_left gcd (abs x) rest

(* ------------------------------------------------------------------ *)
(* Per-dimension analysis                                              *)
(* ------------------------------------------------------------------ *)

(* Result of analyzing one subscript dimension for the tested ivar. *)
type dim_result =
  | Dim_independent
  | Dim_any_distance  (* dimension does not constrain the distance *)
  | Dim_distance of int  (* dependence only possible at this exact distance *)
  | Dim_maybe  (* may be dependent, distance not determined *)

(* Analyze the dependence equation fa(i, v...) = fb(i', v'...) with
   i' = i + delta for unknown ivar-value difference delta, where the
   inner-loop induction variables v are renamed apart between the two
   accesses (they take unrelated values at the two iterations).

   [invariant v] must hold for a symbol's value to be treated as equal at
   the two accesses (loop-invariant in the tested loop); such symbols
   cancel when they appear with equal coefficients on both sides. *)
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
        | _ ->
            if r = 0 then Dim_independent
            else Dim_maybe
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
                  if mn > 0 || mx < 0 then Dim_independent
                  else Dim_maybe
            end
        | _ -> Dim_maybe
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Whole-access tests                                                  *)
(* ------------------------------------------------------------------ *)

let affine_subscripts (a : Frontir.Access.t) =
  List.map Affine.of_expr a.Frontir.Access.subscripts

(** Loop-carried dependence test between two accesses to the {e same}
    base (the caller has already established base identity or aliasing).
    Tests the direction "a at an earlier iteration, b at a later one". *)
let carried ~ctx ~invariant (a : Frontir.Access.t) (b : Frontir.Access.t) :
    outcome =
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
    if List.mem Dim_independent dims then Independent
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
            Dependent { distance = Some d; definite = all_exact_or_free }
          else Independent
    end
  end

(** Do the two accesses refer to the same location {e within one
    iteration} (all enclosing induction variables at equal values)?
    Used for equivalence-class formation and the alias table. *)
type sameness = Same | Different | Maybe_same

let same_location ~invariant (a : Frontir.Access.t) (b : Frontir.Access.t) : sameness =
  let subs_a = affine_subscripts a and subs_b = affine_subscripts b in
  if List.length subs_a <> List.length subs_b then Maybe_same
  else begin
    let dims =
      List.map2
        (fun fa fb ->
          match (fa, fb) with
          | Some fa, Some fb ->
              (* A symbol whose value may differ between the two accesses
                 must not cancel: require invariance of every symbol
                 before trusting the symbolic difference. *)
              if
                Affine.for_all_symbols invariant fa
                && Affine.for_all_symbols invariant fb
              then begin
                let diff = Affine.sub fa fb in
                match Affine.const_value diff with
                | Some 0 -> Same
                | Some _ -> Different
                | None -> Maybe_same
              end
              else Maybe_same
          | _ -> Maybe_same)
        subs_a subs_b
    in
    if List.exists (fun d -> d = Different) dims then Different
    else if List.for_all (fun d -> d = Same) dims then Same
    else Maybe_same
  end
