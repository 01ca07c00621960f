(** The remote back end: bridge a hlid client session to the driver's
    {!Driver.Pass.remote} import.

    Lives in the harness because it is the one place allowed to know
    both the back end's session type and the wire client; the driver
    and the server library stay independent of each other. *)

module C = Hli_server.Client

(** The import over an open client session.  [opened] is the unit list
    returned by the session's [open_hli_bytes] (unit name paired with
    its duplicate item ids).  Each query and maintenance function is
    one wire call; the end-of-pass barrier is a Refresh. *)
let hooks_of_client (cl : C.t) (opened : (string * int list) list) :
    Driver.Pass.remote =
 fun u fn ->
  Option.map
    (fun dups ->
      let session =
        {
          Backend.Hli_import.equiv_acc = (fun a b -> C.equiv_acc cl ~u a b);
          call_acc = (fun ~call ~mem -> C.call_acc cl ~u ~call ~mem);
          delete_item = (fun item -> C.notify_delete cl ~u item);
          gen_item = (fun ~like ~line -> C.notify_gen cl ~u ~like ~line);
          move_item_outward =
            (fun ~item ~target_rid -> C.notify_move cl ~u ~item ~target_rid);
          unroll = (fun ~rid ~factor -> C.notify_unroll cl ~u ~rid ~factor);
          hoist_target = (fun item -> C.hoist_target cl ~u item);
          barrier = (fun () -> C.refresh cl ~u);
        }
      in
      Backend.Hli_import.map_unit_lines ~session ~dups
        ~line_table:(C.line_table cl u) fn)
    (List.assoc_opt u opened)
