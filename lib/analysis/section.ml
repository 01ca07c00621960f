(** Array sections: summaries of the locations an access (or a whole
    loop's worth of accesses) may touch.

    When a loop region's equivalence classes are propagated to the
    enclosing region (paper Section 2.2.1), each class stops meaning "one
    element per iteration" and starts meaning "everything the loop
    touches".  Sections represent that as per-dimension affine intervals,
    e.g. [b\[0..9\]] in the paper's Figure 2. *)

type bound = Affine.t option
(** [None] = unknown / unbounded in that direction *)

type dim = { lo : bound; hi : bound }

type t =
  | Whole  (** the entire variable (scalar, or unknown extent) *)
  | Dims of dim list  (** per-dimension intervals, outermost first *)

let scalar = Whole

let of_point (subs : Affine.t list) : t =
  Dims (List.map (fun f -> { lo = Some f; hi = Some f }) subs)

(** Widen a section over a loop: substitute the induction variable's
    range [lo_iv .. hi_iv] into each bound.  Bounds whose affine form
    still mentions the ivar after no substitution is possible become
    unknown. *)
let widen_over ~ivar ~(iv_lo : Affine.t option) ~(iv_hi : Affine.t option) (t : t) : t =
  match t with
  | Whole -> Whole
  | Dims dims ->
      let subst_bound ~want_low (b : bound) : bound =
        match b with
        | None -> None
        | Some f ->
            let c = Affine.coeff_of f ivar in
            if c = 0 then Some f
            else
              let pick = if (c > 0) = want_low then iv_lo else iv_hi in
              (match pick with
              | Some v -> Some (Affine.subst f ivar v)
              | None -> None)
      in
      Dims
        (List.map
           (fun d ->
             { lo = subst_bound ~want_low:true d.lo; hi = subst_bound ~want_low:false d.hi })
           dims)

(** Union of two sections (smallest enclosing box, per dimension). *)
let join a b =
  match (a, b) with
  | Whole, _ | _, Whole -> Whole
  | Dims da, Dims db ->
      if List.length da <> List.length db then Whole
      else
        let join_bound ~low x y =
          match (x, y) with
          | Some fx, Some fy -> (
              match Affine.const_value (Affine.sub fx fy) with
              | Some c ->
                  if low then if c <= 0 then Some fx else Some fy
                  else if c >= 0 then Some fx
                  else Some fy
              | None -> None)
          | _ -> None
        in
        Dims
          (List.map2
             (fun x y ->
               {
                 lo = join_bound ~low:true x.lo y.lo;
                 hi = join_bound ~low:false x.hi y.hi;
               })
             da db)

(** Can the two sections be proven disjoint?  Only constant-difference
    bounds are comparable. *)
let disjoint a b =
  match (a, b) with
  | Whole, _ | _, Whole -> false
  | Dims da, Dims db ->
      List.length da = List.length db
      && List.exists2
           (fun x y ->
             let lt p q =
               (* p strictly below q *)
               match (p, q) with
               | Some fp, Some fq -> (
                   match Affine.const_value (Affine.sub fp fq) with
                   | Some c -> c < 0
                   | None -> false)
               | _ -> false
             in
             lt x.hi y.lo || lt y.hi x.lo)
           da db

(** Are the two sections provably the same set of locations? *)
let same a b =
  match (a, b) with
  | Whole, Whole -> true
  | Dims da, Dims db ->
      List.length da = List.length db
      && List.for_all2
           (fun x y ->
             let eq p q =
               match (p, q) with
               | Some fp, Some fq -> Affine.equal fp fq
               | None, None -> true
               | _ -> false
             in
             eq x.lo y.lo && eq x.hi y.hi)
           da db
  | Whole, Dims _ | Dims _, Whole -> false

(** Append the printed form to [b]: [<whole>], or [\[lo..hi\]] per
    dimension with [?] for an unknown bound. *)
let add_to_buffer b = function
  | Whole -> Buffer.add_string b "<whole>"
  | Dims dims ->
      let add_bound = function
        | None -> Buffer.add_char b '?'
        | Some f -> Affine.add_to_buffer b f
      in
      List.iter
        (fun d ->
          Buffer.add_char b '[';
          add_bound d.lo;
          Buffer.add_string b "..";
          add_bound d.hi;
          Buffer.add_char b ']')
        dims

let to_string t =
  let b = Buffer.create 32 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)
