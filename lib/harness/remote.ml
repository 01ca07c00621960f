(** Remote back-end hooks: bridge a hlid client session to the driver's
    {!Driver.Pass.remote} interface.

    Lives in the harness because it is the one place allowed to know
    both the back end's closure types and the wire client; the driver
    and the server library stay independent of each other. *)

module C = Hli_server.Client

(** Build pass-context hooks over an open client session.  [opened] is
    the unit list returned by the session's [open_hli_bytes]/[open_path]
    (unit name paired with its duplicate item ids). *)
let hooks_of_client (cl : C.t) (opened : (string * int list) list) :
    Driver.Pass.remote =
  let remote_unit u =
    match List.assoc_opt u opened with
    | None -> None
    | Some dups ->
        Some
          {
            Driver.Pass.ru_source =
              {
                Backend.Hli_import.qs_equiv_acc =
                  (fun a b -> C.equiv_acc cl ~u a b);
                qs_equiv_prob = (fun a b -> C.equiv_prob cl ~u a b);
                qs_call_acc = (fun ~call ~mem -> C.call_acc cl ~u ~call ~mem);
                qs_region_of_item = (fun item -> C.region_of_item cl ~u item);
              };
            ru_maint =
              {
                Backend.Hli_import.mn_delete_item =
                  (fun item -> C.notify_delete cl ~u item);
                mn_gen_item =
                  (fun ~like ~line -> C.notify_gen cl ~u ~like ~line);
                mn_move_item_outward =
                  (fun ~item ~target_rid ->
                    C.notify_move cl ~u ~item ~target_rid);
                mn_unroll =
                  (fun ~rid ~factor -> C.notify_unroll cl ~u ~rid ~factor);
                mn_hoist_target = (fun item -> C.hoist_target cl ~u item);
              };
            ru_refresh = (fun () -> C.refresh cl ~u);
            ru_line_table = (fun () -> C.line_table cl u);
            ru_dups = dups;
          }
  in
  { Driver.Pass.remote_unit }
