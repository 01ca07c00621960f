(** Affine (linear) integer forms over program symbols.

    An affine form is [c0 + Σ ci·vi] where the [vi] are scalar symbols
    (loop induction variables, parameters, or other scalars).  Subscript
    expressions are converted to this representation before dependence
    testing; conversion fails ([None]) for genuinely non-linear
    expressions (products of variables, memory loads, calls), which is
    exactly when SUIF's tests also give up. *)

open Srclang

type t = {
  const : int;
  terms : (Symbol.t * int) list;
      (** sorted by symbol id; coefficients are non-zero *)
}

let const c = { const = c; terms = [] }
let zero = const 0

let var ?(coeff = 1) s =
  if coeff = 0 then zero else { const = 0; terms = [ (s, coeff) ] }

let is_const t = t.terms = []

let const_value t = if is_const t then Some t.const else None

(** Coefficient of [s] (0 when absent). *)
let coeff_of t s =
  match List.assoc_opt s t.terms with
  | Some c -> c
  | None -> (
      (* assoc_opt uses structural equality; symbols are records with
         mutable fields, so compare by id instead *)
      match List.find_opt (fun (v, _) -> Symbol.equal v s) t.terms with
      | Some (_, c) -> c
      | None -> 0)

let normalize terms =
  List.filter (fun (_, c) -> c <> 0) terms
  |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)

let map_coeffs f t =
  { const = f t.const; terms = normalize (List.map (fun (v, c) -> (v, f c)) t.terms) }

let add a b =
  let merged =
    List.fold_left
      (fun acc (v, c) ->
        let prev =
          match List.find_opt (fun (w, _) -> Symbol.equal w v) acc with
          | Some (_, c0) -> c0
          | None -> 0
        in
        (v, prev + c) :: List.filter (fun (w, _) -> not (Symbol.equal w v)) acc)
      a.terms b.terms
  in
  { const = a.const + b.const; terms = normalize merged }

let neg t = map_coeffs (fun c -> -c) t
let sub a b = add a (neg b)
let scale k t = if k = 0 then zero else map_coeffs (fun c -> k * c) t

(** Remove the term for [s], returning its coefficient and the rest. *)
let split t s =
  let c = coeff_of t s in
  (c, { t with terms = List.filter (fun (v, _) -> not (Symbol.equal v s)) t.terms })

(** Substitute an affine form for a symbol: [t\[s := r\]]. *)
let subst t s r =
  let c, rest = split t s in
  if c = 0 then t else add rest (scale c r)

let equal a b =
  a.const = b.const
  && List.length a.terms = List.length b.terms
  && List.for_all2
       (fun (v1, c1) (v2, c2) -> Symbol.equal v1 v2 && c1 = c2)
       a.terms b.terms

(** Symbols appearing with non-zero coefficient. *)
let symbols t = List.map fst t.terms

let for_all_symbols p t = List.for_all (fun (v, _) -> p v) t.terms

(* ------------------------------------------------------------------ *)
(* Extraction from typed expressions                                   *)
(* ------------------------------------------------------------------ *)

(** Convert an integer-typed expression to affine form.  Scalar variables
    (pseudo-register locals, parameters and even globals) become symbolic
    terms; whether a term may be treated as loop-invariant is the
    caller's concern (see {!Deptest}). *)
let rec of_expr (e : Tast.expr) : t option =
  match e.Tast.desc with
  | Tast.Const_int n -> Some (const n)
  | Tast.Lval { ldesc = Tast.Lvar s; lty; _ } when Types.equal lty Types.Tint ->
      Some (var s)
  | Tast.Binop (Ast.Add, a, b) -> map2 add a b
  | Tast.Binop (Ast.Sub, a, b) -> map2 sub a b
  | Tast.Binop (Ast.Mul, a, b) -> (
      match (of_expr a, of_expr b) with
      | Some fa, Some fb -> (
          match (const_value fa, const_value fb) with
          | Some k, _ -> Some (scale k fb)
          | _, Some k -> Some (scale k fa)
          | None, None -> None)
      | _ -> None)
  | Tast.Unop (Ast.Neg, a) -> Option.map neg (of_expr a)
  | Tast.Cast (Types.Tint, a) -> of_expr a
  | _ -> None

and map2 f a b =
  match (of_expr a, of_expr b) with
  | Some fa, Some fb -> Some (f fa fb)
  | _ -> None

(** Append the printed form to [b]: the constant first when non-zero,
    then each term as [v], [-v] or [c*v], signed after the first, with
    [v] printed as {!Symbol.pp} does ([name#id]). *)
let add_to_buffer b t =
  if is_const t then Buffer.add_string b (string_of_int t.const)
  else begin
    if t.const <> 0 then Buffer.add_string b (string_of_int t.const);
    List.iteri
      (fun n (v, c) ->
        let first = n = 0 && t.const = 0 in
        if c = 1 then (if not first then Buffer.add_char b '+')
        else if c = -1 then Buffer.add_char b '-'
        else begin
          if c > 0 && not first then Buffer.add_char b '+';
          Buffer.add_string b (string_of_int c);
          Buffer.add_char b '*'
        end;
        Buffer.add_string b v.Symbol.name;
        Buffer.add_char b '#';
        Buffer.add_string b (string_of_int v.Symbol.id))
      t.terms
  end

let to_string t =
  let b = Buffer.create 16 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)
