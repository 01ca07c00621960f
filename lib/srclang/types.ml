(** Types of the mini-C source language.

    The language deliberately mirrors the C subset the paper's benchmarks
    exercise: scalars ([int], [double]), statically sized multi-dimensional
    arrays, and pointers.  Structs are not modelled; the ABI-induced memory
    traffic the paper attributes to struct returns is still exercised by
    stack-passed arguments (see {!Backend.Lower}). *)

type t =
  | Tvoid  (** function return type only *)
  | Tint  (** 32-bit signed integer *)
  | Tdouble  (** 64-bit IEEE float *)
  | Tarray of t * int  (** [Tarray (elem, n)]: n elements of type [elem] *)
  | Tptr of t  (** pointer to [t] *)

let rec equal a b =
  match (a, b) with
  | Tvoid, Tvoid | Tint, Tint | Tdouble, Tdouble -> true
  | Tarray (ea, na), Tarray (eb, nb) -> na = nb && equal ea eb
  | Tptr a, Tptr b -> equal a b
  | (Tvoid | Tint | Tdouble | Tarray _ | Tptr _), _ -> false

(** Size in bytes, matching a 32-bit MIPS-like target: [int] and pointers
    are 4 bytes, [double] is 8. *)
let rec size_of = function
  | Tvoid -> 0
  | Tint -> 4
  | Tdouble -> 8
  | Tptr _ -> 4
  | Tarray (elem, n) -> n * size_of elem

(** The element type obtained by one subscript or dereference. *)
let deref = function
  | Tarray (elem, _) -> Some elem
  | Tptr elem -> Some elem
  | Tvoid | Tint | Tdouble -> None

let is_scalar = function
  | Tint | Tdouble | Tptr _ -> true
  | Tvoid | Tarray _ -> false

let is_arith = function
  | Tint | Tdouble -> true
  | Tvoid | Tptr _ | Tarray _ -> false

let is_pointer = function Tptr _ -> true | _ -> false

(** Array-of-T decays to pointer-to-T in expression contexts, as in C. *)
let decay = function Tarray (elem, _) -> Tptr elem | t -> t

(** The scalar an array ultimately holds: [elem_root (double[5][5])] is
    [double]. *)
let rec elem_root = function Tarray (e, _) -> elem_root e | t -> t

(** Dimension sizes of a (possibly nested) array type, outermost first. *)
let rec dims = function Tarray (e, n) -> n :: dims e | _ -> []

let rec pp ppf = function
  | Tvoid -> Fmt.string ppf "void"
  | Tint -> Fmt.string ppf "int"
  | Tdouble -> Fmt.string ppf "double"
  | Tptr t -> Fmt.pf ppf "%a*" pp t
  | Tarray (t, n) -> Fmt.pf ppf "%a[%d]" pp t n

let to_string t = Fmt.str "%a" pp t

(** Append a compact structural encoding of the type to [b].  Injective
    like [to_string] but allocation-free — fingerprint walks
    ({!Analysis.Fingerprint}, {!Analysis.Refmod}) run it on every AST
    node, where a formatter round-trip per node dominates the whole
    digest. *)
let rec digest_into b = function
  | Tvoid -> Buffer.add_char b 'V'
  | Tint -> Buffer.add_char b 'I'
  | Tdouble -> Buffer.add_char b 'D'
  | Tptr t ->
      Buffer.add_char b 'P';
      digest_into b t
  | Tarray (t, n) ->
      Buffer.add_char b 'A';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b ':';
      digest_into b t
