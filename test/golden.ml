(* Golden files shared by test_simgolden, test_schedgolden and
   test_hligolden: one row per line, the first two space-separated
   fields naming the configuration and the program; blank and '#'
   lines are skipped. *)

let read file =
  let ic = open_in_bin file in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* the rows of [config] x [prog], in file order *)
let rows golden ~config ~prog =
  List.filter
    (fun l ->
      match String.split_on_char ' ' l with
      | c :: p :: _ -> c = config && p = prog
      | _ -> false)
    golden
