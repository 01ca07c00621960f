(** Memory-access descriptors.

    An [Access.t] captures *what* a memory item touches, in a form the
    dependence and alias analyses can reason about: a base plus subscript
    expressions.  Both the front-end ITEMGEN phase and the HLI table
    construction work over these. *)

open Srclang

type base =
  | Direct of Symbol.t  (** a named variable (scalar or array) *)
  | Through_ptr of Symbol.t
      (** indirection through a named pointer variable: [*p], [p\[i\]] *)
  | Unknown_ptr  (** indirection through a computed pointer expression *)
  | Stack_arg of string * int
      (** ABI traffic: outgoing stack slot for argument [i] of a call to
          the named function (paper Section 3.1.1) *)
  | Incoming_arg of string * int
      (** ABI traffic at function entry for parameter [i] *)

type t = {
  base : base;
  subscripts : Tast.expr list;  (** outermost dimension first; may be [] *)
  elem_size : int;  (** bytes accessed *)
  is_store : bool;
}

(** Descriptor for an lvalue that is known to be a memory access.
    [is_store] distinguishes the final read/write of the location. *)
let of_lvalue ~is_store (lv : Tast.lvalue) : t =
  let elem_size = Types.size_of (Types.decay lv.Tast.lty) in
  let subscripts = Tast.subscripts lv in
  let base =
    match Tast.root_symbol lv with
    | Some s -> Direct s
    | None -> (
        match Tast.via_pointer lv with
        | Some p -> Through_ptr p
        | None -> Unknown_ptr)
  in
  { base; subscripts; elem_size; is_store }

let pp_base ppf = function
  | Direct s -> Symbol.pp ppf s
  | Through_ptr p -> Fmt.pf ppf "*%a" Symbol.pp p
  | Unknown_ptr -> Fmt.string ppf "*?"
  | Stack_arg (f, i) -> Fmt.pf ppf "stackarg(%s,%d)" f i
  | Incoming_arg (f, i) -> Fmt.pf ppf "inarg(%s,%d)" f i

let pp ppf t =
  Fmt.pf ppf "%s %a%a"
    (if t.is_store then "st" else "ld")
    pp_base t.base
    Fmt.(list (brackets Tast.pp_expr))
    t.subscripts

let to_string t = Fmt.str "%a" pp t
