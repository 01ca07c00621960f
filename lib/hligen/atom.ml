(** Atoms: the units from which a region's equivalence classes are
    built.

    An atom is either a memory item immediately enclosed by the region,
    or a whole equivalence class propagated up from an immediate
    sub-region (with its locations widened over the sub-loop's range).
    TBLCONST groups atoms into classes, then derives alias and LCDD
    relations between the classes. *)

open Srclang
open Analysis

(** The memory "space" an atom lives in; atoms in different spaces can
    only interact through pointer aliasing. *)
type space =
  | Space_sym of Symbol.t  (** a named variable *)
  | Space_ptr of Symbol.t  (** indirection through pointer variable *)
  | Space_any  (** unknown pointer: may be anywhere *)
  | Space_abi_out of int  (** outgoing stack-argument slot *)
  | Space_abi_in of int  (** incoming stack-argument slot *)

let space_equal a b =
  match (a, b) with
  | Space_sym x, Space_sym y | Space_ptr x, Space_ptr y -> Symbol.equal x y
  | Space_any, Space_any -> true
  | Space_abi_out i, Space_abi_out j | Space_abi_in i, Space_abi_in j -> i = j
  | _ -> false

let space_of_access (a : Frontir.Access.t) =
  match a.Frontir.Access.base with
  | Frontir.Access.Direct s -> Space_sym s
  | Frontir.Access.Through_ptr p -> Space_ptr p
  | Frontir.Access.Unknown_ptr -> Space_any
  | Frontir.Access.Stack_arg (_, i) -> Space_abi_out i
  | Frontir.Access.Incoming_arg (_, i) -> Space_abi_in i

type t = {
  members : Hli_core.Tables.member list;
  space : space;
  section : Section.t;  (** where in the space the atom may touch *)
  kind : Hli_core.Tables.equiv_kind;
  has_load : bool;
  has_store : bool;
  reprs : Frontir.Access.t list;
      (** representative raw accesses; non-empty only for atoms built
          from immediate items, enabling exact dependence distances *)
  desc_section : Section.t option;
      (** what the class description prints after the space name: the
          section the atom was made with, or [None] for the bare name.
          {!desc} prints it once, when TBLCONST emits the class. *)
}

(** Section of one access: point sections from affine subscripts,
    [Whole] for scalars or non-affine subscripts. *)
let section_of_access (a : Frontir.Access.t) : Section.t =
  match a.Frontir.Access.subscripts with
  | [] -> Section.Whole
  | subs -> (
      let affs = List.map Affine.of_expr subs in
      if List.for_all Option.is_some affs then
        Section.of_point (List.map Option.get affs)
      else Section.Whole)

let is_degenerate_section = function
  | Section.Whole -> false
  | Section.Dims dims ->
      List.for_all
        (fun { Section.lo; hi } ->
          match (lo, hi) with
          | Some a, Some b -> Affine.equal a b
          | _ -> false)
        dims

let desc_of_space space =
  match space with
  | Space_sym s -> s.Symbol.name
  | Space_ptr p -> "*" ^ p.Symbol.name
  | Space_any -> "*?"
  | Space_abi_out i -> "argout" ^ string_of_int i
  | Space_abi_in i -> "argin" ^ string_of_int i

(** The class description: the space name, then the description
    section if there is one. *)
let desc (t : t) =
  match t.desc_section with
  | None -> desc_of_space t.space
  | Some sec ->
      let b = Buffer.create 32 in
      Buffer.add_string b (desc_of_space t.space);
      Section.add_to_buffer b sec;
      Buffer.contents b

(* An item atom describes every subscripted access by its section, so a
   non-affine subscript prints [x<whole>]; only a scalar prints bare. *)
let of_item (item : Frontir.Itemgen.item) (a : Frontir.Access.t) : t =
  let section = section_of_access a in
  {
    members = [ Hli_core.Tables.Member_item item.Frontir.Itemgen.id ];
    space = space_of_access a;
    section;
    kind = Hli_core.Tables.Definitely;
    has_load = not a.Frontir.Access.is_store;
    has_store = a.Frontir.Access.is_store;
    reprs = [ a ];
    desc_section =
      (if a.Frontir.Access.subscripts = [] then None else Some section);
  }

(** Can two atoms of the same space be proven to touch the same
    location(s)?  [invariant] must accept only symbols whose value cannot
    change between the two accesses (within one iteration of the
    region). *)
let is_whole_scalar (t : t) =
  t.section = Section.Whole
  &&
  match t.space with
  | Space_sym s -> Types.is_scalar s.Symbol.ty
  | Space_abi_out _ | Space_abi_in _ -> true
  | Space_ptr _ | Space_any -> false

let same_location ~invariant (a : t) (b : t) : Deptest.sameness =
  match (a.reprs, b.reprs) with
  | ra :: _, rb :: _ when List.length a.reprs = 1 && List.length b.reprs = 1 ->
      (* exact comparison on the raw subscripts *)
      Deptest.same_location ~invariant ra rb
  | _ ->
      if is_whole_scalar a && is_whole_scalar b then
        (* same scalar variable (spaces already matched): one location *)
        Deptest.Same
      else if Section.same a.section b.section then
        if is_degenerate_section a.section then Deptest.Same else Deptest.Maybe_same
      else if Section.disjoint a.section b.section then Deptest.Different
      else Deptest.Maybe_same
