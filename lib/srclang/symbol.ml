(** Program symbols (variables and formal parameters).

    Symbols are created by the type checker; each carries a globally unique
    id so later passes can use them as hash/map keys without worrying about
    shadowing.  The [addr_taken] flag is what decides, per the paper's
    ITEMGEN rules (Section 3.1.1), whether a local scalar lives in a
    pseudo-register (no memory item) or in memory. *)

type storage =
  | Global  (** file-scope variable: always memory-resident *)
  | Local  (** function-scope variable *)
  | Param  (** formal parameter *)

type t = {
  id : int;  (** unique across the whole program *)
  name : string;
  ty : Types.t;
  storage : storage;
  mutable addr_taken : bool;
      (** set if [&x] appears anywhere; forces memory residence *)
}

(* Domain-local so programs type-checked on different harness domains
   get ids that depend only on their own source text (parallel runs
   must produce byte-identical output to sequential ones).  Ids are
   unique within one program: the type checker resets the counter at
   the start of every program. *)
let counter_key = Domain.DLS.new_key (fun () -> ref 0)

let reset_counter () = Domain.DLS.get counter_key := 0

let fresh ~name ~ty ~storage =
  let counter = Domain.DLS.get counter_key in
  incr counter;
  { id = !counter; name; ty; storage; addr_taken = false }

let equal a b = a.id = b.id
let compare a b = compare a.id b.id
let hash t = t.id

(** A symbol is memory-resident when the back end cannot promote it to a
    pseudo-register: globals, arrays, and address-taken locals/params. *)
let memory_resident t =
  match t.storage with
  | Global -> true
  | Local | Param -> t.addr_taken || not (Types.is_scalar t.ty)

let is_global t = t.storage = Global

let pp ppf t =
  Fmt.pf ppf "%s#%d" t.name t.id

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
