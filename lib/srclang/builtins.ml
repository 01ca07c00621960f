(** Built-in functions known to the whole toolchain.

    These stand in for the C library calls the SPEC benchmarks make.
    None of them reads or writes user memory, so the interprocedural
    REF/MOD analysis gives every builtin call the empty summary
    ([Refmod.call_effect]), as a real front end would for math
    intrinsics.  That is sound for the output routines and for [rand]
    and [srand] too: the generator's state is not user memory, and the
    DDG's call-to-call edges keep [rand] and [srand] calls in order. *)

type t = { name : string; ret : Types.t; params : Types.t list }

let all =
  [
    { name = "sqrt"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "fabs"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "exp"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "log"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "sin"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "cos"; ret = Types.Tdouble; params = [ Types.Tdouble ] };
    { name = "pow"; ret = Types.Tdouble; params = [ Types.Tdouble; Types.Tdouble ] };
    { name = "abs"; ret = Types.Tint; params = [ Types.Tint ] };
    { name = "print_int"; ret = Types.Tvoid; params = [ Types.Tint ] };
    { name = "print_double"; ret = Types.Tvoid; params = [ Types.Tdouble ] };
    (* a pseudo-random generator with hidden internal state, like
       SPEC's rand() *)
    { name = "rand"; ret = Types.Tint; params = [] };
    { name = "srand"; ret = Types.Tvoid; params = [ Types.Tint ] };
  ]

let find name = List.find_opt (fun b -> b.name = name) all

let is_builtin name = Option.is_some (find name)
