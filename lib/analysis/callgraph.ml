(** Call graph over user-defined functions. *)

open Srclang

type t = {
  callees : (string, string list) Hashtbl.t;
      (** user functions called by each function (deduplicated) *)
  callers : (string, string list) Hashtbl.t;
}

let calls_in_func (f : Tast.func) : string list =
  Tast.fold_exprs
    (fun acc e ->
      match e.Tast.desc with Tast.Call (name, _) -> name :: acc | _ -> acc)
    [] f.Tast.body
  |> List.rev

let dedup l = List.sort_uniq compare l

let build (prog : Tast.program) : t =
  let callees = Hashtbl.create 16 and callers = Hashtbl.create 16 in
  let is_user name = Option.is_some (Tast.find_func prog name) in
  List.iter
    (fun (f : Tast.func) ->
      let user = List.filter is_user (calls_in_func f) in
      Hashtbl.replace callees f.Tast.name (dedup user);
      List.iter
        (fun callee ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt callers callee) in
          if not (List.mem f.Tast.name prev) then
            Hashtbl.replace callers callee (f.Tast.name :: prev))
        (dedup user))
    prog.Tast.funcs;
  { callees; callers }

let callees t name = Option.value ~default:[] (Hashtbl.find_opt t.callees name)
let callers t name = Option.value ~default:[] (Hashtbl.find_opt t.callers name)

(** Every user function reachable from [name] through calls, sorted by
    name ([name] itself included only when it is recursive).  This is
    the propagation set of the per-function HLI fingerprint: an edit to
    any transitive callee must invalidate [name]'s cached entry,
    because the callee's REF/MOD summary folds into [name]'s call
    tables through the {!Refmod} fixpoint. *)
let transitive_callees t name =
  let seen = Hashtbl.create 16 in
  let rec go n =
    List.iter
      (fun c ->
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.replace seen c ();
          go c
        end)
      (callees t n)
  in
  go name;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

(** Is [callee] reachable from [caller] through user calls (including
    transitively)?  Used to detect recursion. *)
let reaches t ~from ~target =
  let seen = Hashtbl.create 16 in
  let rec go name =
    if Hashtbl.mem seen name then false
    else begin
      Hashtbl.replace seen name ();
      let cs = callees t name in
      List.mem target cs || List.exists go cs
    end
  in
  go from

let is_recursive t name = reaches t ~from:name ~target:name
