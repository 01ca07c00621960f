(* End-to-end tests for the hlid server (lib/server): a real listening
   socket served from a spawned domain, exercised by real client
   sessions.

   - differential: every query kind answered over the wire equals the
     in-process engine on the same entries;
   - maintenance parity: notify/refresh replays Maintain edits with
     identical generated ids and post-edit answers;
   - concurrency: >= 5 simultaneous sessions each get in-process
     answers;
   - faults: every injected protocol violation (garbage tag, flipped
     CRC, oversized frame, query-before-open, unknown unit, shutdown
     mid-session, bad unroll factor) surfaces as its precise E-code,
     with no hang;
   - handshake: a Hello at the one protocol version is served, any
     other version is answered E1111; Q_prob answers equal the
     engine's;
   - pipelining: N-in-flight batches correlate positionally against
     the oracle, out-of-sequence replies are rejected (E1105), a
     server killed mid-pipeline fails fast with E1110 — no hang, no
     wrong answers;
   - wire I/O: write_all survives tiny socket buffers / partial
     writes / a jammed peer, and an EINTR signal storm does not kill
     a session. *)

module P = Hli_server.Protocol
module C = Hli_server.Client
module T = Hli_core.Tables
module Q = Hli_core.Query
module M = Hli_core.Maintain
module S = Hli_core.Serialize

let equiv_result = Alcotest.testable Q.pp_equiv_result ( = )
let call_acc = Alcotest.testable Q.pp_call_acc ( = )
let prob_result = Alcotest.pair equiv_result Alcotest.int

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hli-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* Spawn a server on its own domain, run [f path], always shut down. *)
let with_server ?(jobs = 10) ?max_frame ?shm_dir ?store_cap f =
  let path = fresh_socket () in
  let cfg = Hli_server.Server.default_config ~socket_path:path in
  let cfg =
    {
      cfg with
      Hli_server.Server.jobs;
      idle_timeout = 0.005;
      max_frame = Option.value max_frame ~default:cfg.Hli_server.Server.max_frame;
      shm_dir;
      store_cap = Option.value store_cap ~default:cfg.Hli_server.Server.store_cap;
    }
  in
  let srv = Hli_server.Server.create cfg in
  let d = Domain.spawn (fun () -> Hli_server.Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Hli_server.Server.initiate_shutdown srv;
      Domain.join d;
      (try Sys.remove path with Sys_error _ -> ()))
    (fun () -> f path srv)

let with_client ?(shm = false) path f =
  let cl = C.connect ~timeout:10.0 ~shm path in
  Fun.protect ~finally:(fun () -> C.close cl) (fun () -> f cl)

(* Corpus: the real pipeline's HLI for a small workload. *)
let entries_of_workload name =
  let w = Option.get (Workloads.Registry.find name) in
  let prog = Srclang.Typecheck.program_of_string w.Workloads.Workload.source in
  Harness.Pipeline.build_hli_entries prog

let wire_of entries = Hli_core.Serialize.to_bytes { T.entries }

let items_of_entry (e : T.hli_entry) =
  List.sort_uniq compare
    (List.concat_map
       (fun le -> List.map (fun it -> it.T.item_id) le.T.items)
       e.T.line_table)

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n xs

(* Check every query kind over the wire against a local index. *)
let check_unit_against_local cl (e : T.hli_entry) =
  let u = e.T.unit_name in
  let idx = Q.build e in
  let items = take 12 (items_of_entry e) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check equiv_result
            (Printf.sprintf "%s equiv %d %d" u a b)
            (Q.get_equiv_acc idx a b)
            (C.equiv_acc cl ~u a b);
          Alcotest.check call_acc
            (Printf.sprintf "%s call %d %d" u a b)
            (Q.get_call_acc idx ~call:a ~mem:b)
            (C.call_acc cl ~u ~call:a ~mem:b);
          Alcotest.check prob_result
            (Printf.sprintf "%s equiv_prob %d %d" u a b)
            (Q.get_equiv_prob idx a b)
            (C.equiv_prob cl ~u a b))
        items)
    items

let expect_code code f =
  match f () with
  | _ -> Alcotest.failf "expected a %s diagnostic" code
  | exception Diagnostics.Diagnostic d ->
      Alcotest.(check string) "code" code d.Diagnostics.code

(* Scrape the integer that follows [key] in a stats JSON blob. *)
let json_int key json =
  let klen = String.length key and n = String.length json in
  let rec find i =
    if i + klen > n then Alcotest.failf "stats JSON lacks %s" key
    else if String.sub json i klen = key then i + klen
    else find (i + 1)
  in
  let start = find 0 in
  Scanf.sscanf (String.sub json start (min 20 (n - start))) "%d" Fun.id

(* ------------------------------------------------------------------ *)
(* Differential + maintenance + concurrency                            *)
(* ------------------------------------------------------------------ *)

let wc_entries = lazy (entries_of_workload "wc")

let differential_tests =
  [
    Alcotest.test_case "wire answers equal the in-process engine" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                let opened = C.open_hli_bytes cl (wire_of entries) in
                Alcotest.(check int)
                  "all units opened" (List.length entries) (List.length opened);
                List.iter
                  (fun (e : T.hli_entry) ->
                    (* reported duplicates match the local index's *)
                    let idx = Q.build e in
                    Alcotest.(check (list int))
                      "duplicates"
                      (Q.duplicate_items idx)
                      (List.assoc e.T.unit_name opened);
                    check_unit_against_local cl e)
                  entries)));
    Alcotest.test_case "line table survives the wire" `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                List.iter
                  (fun (e : T.hli_entry) ->
                    Alcotest.(check bool)
                      "line table equal" true
                      (C.line_table cl e.T.unit_name = e.T.line_table))
                  entries)));
    Alcotest.test_case "maintenance notifications replay Maintain" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        let e =
          List.find (fun e -> items_of_entry e <> []) entries
        in
        let u = e.T.unit_name in
        match items_of_entry e with
        | i0 :: rest ->
            let like = match rest with i :: _ -> i | [] -> i0 in
            (* local replay *)
            let mt = M.start e in
            M.delete_item mt i0;
            let gid = M.gen_item mt ~like ~line:5 in
            let _entry', idx' = M.commit mt in
            with_server (fun path _srv ->
                with_client path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of [ e ]));
                    C.notify_delete cl ~u i0;
                    let gid_r = C.notify_gen cl ~u ~like ~line:5 in
                    Alcotest.(check int) "generated id" gid gid_r;
                    C.refresh cl ~u;
                    (* post-edit answers equal the committed local index *)
                    List.iter
                      (fun a ->
                        List.iter
                          (fun b ->
                            Alcotest.check equiv_result
                              (Printf.sprintf "post-edit equiv %d %d" a b)
                              (Q.get_equiv_acc idx' a b)
                              (C.equiv_acc cl ~u a b))
                          (take 8 (gid :: items_of_entry e)))
                      (take 8 (gid :: items_of_entry e))))
        | [] -> Alcotest.fail "workload has no items");
    Alcotest.test_case "5 concurrent sessions all get local answers" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        let bytes = wire_of entries in
        (* precompute the oracle once, outside the domains *)
        let e = List.hd entries in
        let idx = Q.build e in
        let items = take 10 (items_of_entry e) in
        let oracle =
          List.concat_map
            (fun a -> List.map (fun b -> Q.get_equiv_acc idx a b) items)
            items
        in
        with_server ~jobs:10 (fun path _srv ->
            let doms =
              List.init 5 (fun _ ->
                  Domain.spawn (fun () ->
                      with_client path (fun cl ->
                          ignore (C.open_hli_bytes cl bytes);
                          List.concat_map
                            (fun a ->
                              List.map
                                (fun b ->
                                  C.equiv_acc cl ~u:e.T.unit_name a b)
                                items)
                            items)))
            in
            List.iteri
              (fun i d ->
                Alcotest.(check bool)
                  (Printf.sprintf "session %d matches oracle" i)
                  true
                  (Domain.join d = oracle))
              doms));
    Alcotest.test_case "server telemetry is valid JSON with sessions" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                ignore (C.equiv_acc cl ~u:(List.hd entries).T.unit_name 1 1);
                let js = C.server_stats cl in
                (match Harness.Telemetry.validate_json js with
                | Ok () -> ()
                | Error (m, pos) ->
                    Alcotest.failf "bad stats JSON at %d: %s" pos m);
                Alcotest.(check bool)
                  "mentions sessions" true
                  (Harness.Telemetry.schema_of_json js = None
                  && String.length js > 2))));
  ]

(* ------------------------------------------------------------------ *)
(* Shared-memory fast path                                             *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_shm_dir f =
  let dir = Filename.temp_file "hli-shm-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let rec hlix_files p =
  if Sys.is_directory p then
    List.concat_map
      (fun f -> hlix_files (Filename.concat p f))
      (Array.to_list (Sys.readdir p))
  else if Filename.check_suffix p ".hlix" then [ p ]
  else []

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let shm_tests =
  [
    Alcotest.test_case "shm answers equal the engine, no wire fallbacks"
      `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        with_shm_dir (fun dir ->
            with_server ~shm_dir:dir (fun path _srv ->
                with_client ~shm:true path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of entries));
                    let before = C.shm_stats () in
                    List.iter
                      (fun (e : T.hli_entry) ->
                        Alcotest.(check bool)
                          (e.T.unit_name ^ " has a segment")
                          true
                          (C.shm_active cl e.T.unit_name);
                        check_unit_against_local cl e)
                      entries;
                    let after = C.shm_stats () in
                    Alcotest.(check bool)
                      "segments were mapped" true
                      (after.C.maps > before.C.maps);
                    Alcotest.(check int)
                      "no wire fallbacks" before.C.wire_fallbacks
                      after.C.wire_fallbacks))));
    Alcotest.test_case "maintenance window diverts to the wire, refresh\
                        reconverges off shm" `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        let e = List.find (fun e -> items_of_entry e <> []) entries in
        let u = e.T.unit_name in
        match items_of_entry e with
        | i0 :: rest ->
            let like = match rest with i :: _ -> i | [] -> i0 in
            (* local replay, watched like the server's session state *)
            let idx0 = Q.build e in
            let mt = M.start ~index:idx0 e in
            M.delete_item mt i0;
            let gid = M.gen_item mt ~like ~line:5 in
            let _entry', idx' = M.commit mt in
            let probes = take 8 (gid :: items_of_entry e) in
            with_shm_dir (fun dir ->
                with_server ~shm_dir:dir (fun path _srv ->
                    with_client ~shm:true path (fun cl ->
                        ignore (C.open_hli_bytes cl (wire_of [ e ]));
                        C.notify_delete cl ~u i0;
                        Alcotest.(check int)
                          "generated id" gid
                          (C.notify_gen cl ~u ~like ~line:5);
                        (* window open: answers come from the watched
                           wire index, counted as fallbacks *)
                        let before = C.shm_stats () in
                        List.iter
                          (fun a ->
                            Alcotest.check equiv_result
                              (Printf.sprintf "mid-window equiv %d" a)
                              (Q.get_equiv_acc idx0 a i0)
                              (C.equiv_acc cl ~u a i0))
                          probes;
                        let mid = C.shm_stats () in
                        Alcotest.(check bool)
                          "window lookups fell back" true
                          (mid.C.wire_fallbacks > before.C.wire_fallbacks);
                        C.refresh cl ~u;
                        (* window closed: the rebuilt segment answers,
                           equal to the committed engine *)
                        List.iter
                          (fun a ->
                            List.iter
                              (fun b ->
                                Alcotest.check equiv_result
                                  (Printf.sprintf "post-refresh equiv %d %d"
                                     a b)
                                  (Q.get_equiv_acc idx' a b)
                                  (C.equiv_acc cl ~u a b))
                              probes)
                          probes;
                        let after = C.shm_stats () in
                        Alcotest.(check int)
                          "post-refresh lookups served off shm"
                          mid.C.wire_fallbacks after.C.wire_fallbacks)))
        | [] -> Alcotest.fail "workload has no items");
    Alcotest.test_case "corrupt segment falls back to the wire" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        with_shm_dir (fun dir ->
            with_server ~shm_dir:dir (fun path _srv ->
                with_client ~shm:true path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of entries));
                    (* corrupt every published segment before the lazy
                       first-lookup mapping: flip a CRC-covered body
                       byte just past the header *)
                    let files = hlix_files dir in
                    Alcotest.(check bool)
                      "segments were published" true (files <> []);
                    List.iter (fun p -> flip_byte p 97) files;
                    let before = C.shm_stats () in
                    List.iter (check_unit_against_local cl) entries;
                    let after = C.shm_stats () in
                    Alcotest.(check bool)
                      "lookups fell back to the wire" true
                      (after.C.wire_fallbacks > before.C.wire_fallbacks)))));
    Alcotest.test_case "stale publish temporaries are swept and counted"
      `Quick (fun () ->
        with_shm_dir (fun dir ->
            (* a crashed server left a half-published segment behind *)
            let stale_dir = Filename.concat dir "sess-99" in
            Unix.mkdir stale_dir 0o755;
            let stale =
              Filename.concat stale_dir "deadbeef.hlix.tmp.4242"
            in
            Out_channel.with_open_bin stale (fun oc ->
                Out_channel.output_string oc "half-written junk");
            with_server ~shm_dir:dir (fun path _srv ->
                Alcotest.(check bool) "temporary removed at startup" false
                  (Sys.file_exists stale);
                Alcotest.(check bool) "orphan session dir removed" false
                  (Sys.file_exists stale_dir);
                with_client path (fun cl ->
                    Alcotest.(check int) "telemetry counted the sweep" 1
                      (json_int "\"stale_swept\":" (C.server_stats cl))))));
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* Write raw bytes, expect one R_error frame with [code]. *)
let expect_raw_error path bytes code =
  let fd = raw_connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      match P.recv_response ~timeout:10.0 (P.reader fd) with
      | P.R_error { e_code; _ } ->
          Alcotest.(check string) "error code" code e_code
      | _ -> Alcotest.failf "expected an R_error %s frame" code)

let flip_last s =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let fault_tests =
  [
    Alcotest.test_case "garbage tag answers E1101" `Quick (fun () ->
        (* 0x0f and 0x10 are the first tags past the request range: a
           lone one must be refused, not leave the server waiting for
           the rest of a frame *)
        with_server (fun path _srv ->
            List.iter
              (fun tag -> expect_raw_error path tag "E1101")
              [ "\xee"; "\x0f"; "\x10" ]));
    Alcotest.test_case "flipped CRC answers E1103" `Quick (fun () ->
        with_server (fun path _srv ->
            let frame =
              P.request_to_string (P.Hello { version = P.protocol_version })
            in
            expect_raw_error path (flip_last frame) "E1103"));
    Alcotest.test_case "oversized frame answers E1104" `Quick (fun () ->
        with_server ~max_frame:1024 (fun path _srv ->
            let frame =
              P.request_to_string (P.Open_hli (String.make 4096 'x'))
            in
            expect_raw_error path frame "E1104"));
    Alcotest.test_case "version below minimum answers E1111" `Quick (fun () ->
        (* the current version is the only one accepted, so it is also
           the minimum; a raw Hello one below it is refused outright *)
        with_server (fun path _srv ->
            expect_raw_error path
              (P.request_to_string
                 (P.Hello { version = P.protocol_version - 1 }))
              "E1111"));
    Alcotest.test_case "query before open raises E1106" `Quick (fun () ->
        with_server (fun path _srv ->
            with_client path (fun cl ->
                expect_code "E1106" (fun () -> C.equiv_acc cl ~u:"u" 1 2))));
    Alcotest.test_case "unknown unit raises E1107" `Quick (fun () ->
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of (Lazy.force wc_entries)));
                expect_code "E1107" (fun () ->
                    C.equiv_acc cl ~u:"no-such-unit" 1 2))));
    Alcotest.test_case "corrupt HLI payload relays its E06xx code" `Quick
      (fun () ->
        with_server (fun path _srv ->
            with_client path (fun cl ->
                expect_code "E0610" (fun () ->
                    C.open_hli_bytes cl "not an HLI container"))));
    Alcotest.test_case "bad unroll factor relays E0701" `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                expect_code "E0701" (fun () ->
                    C.notify_unroll cl
                      ~u:(List.hd entries).T.unit_name
                      ~rid:1 ~factor:1))));
    Alcotest.test_case "shutdown mid-session answers E1110" `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                let u = (List.hd entries).T.unit_name in
                Hli_server.Server.initiate_shutdown srv;
                (* the session notices the flag at its next idle poll;
                   keep querying (bounded) until the E1110 arrives *)
                let rec poke n =
                  if n = 0 then
                    Alcotest.fail "no E1110 after shutdown"
                  else
                    match
                      C.query_batch cl [ P.Q_equiv { u; a = 1; b = 1 } ]
                    with
                    | _ ->
                        Unix.sleepf 0.02;
                        poke (n - 1)
                    | exception Diagnostics.Diagnostic d ->
                        Alcotest.(check string)
                          "code" "E1110" d.Diagnostics.code
                in
                poke 200)));
    Alcotest.test_case "connect to a dead socket raises E1112" `Quick
      (fun () ->
        expect_code "E1112" (fun () ->
            C.connect ~timeout:2.0 (fresh_socket ())));
  ]

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

(* A raw session whose Hello carries a hand-picked version, so the
   handshake is exercised exactly as a peer built from another tree
   would see it. *)
let raw_session path f =
  let fd = raw_connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rd = P.reader fd in
      let send req =
        let b = P.request_to_string req in
        ignore (Unix.write_substring fd b 0 (String.length b))
      in
      let recv () = P.recv_response ~timeout:10.0 rd in
      f send recv)

let hello_at path version =
  raw_session path (fun send recv ->
      send (P.Hello { version });
      recv ())

(* One case per Hello version: only an exact match is answered with
   R_hello at that version; anything else is E1111. *)
let hello_case (name, version, want) =
  Alcotest.test_case name `Quick (fun () ->
      with_server (fun path _srv ->
          let got =
            match hello_at path version with
            | P.R_hello { version; _ } -> Printf.sprintf "v%d" version
            | P.R_error { e_code; _ } -> e_code
            | _ -> "another frame"
          in
          Alcotest.(check string) (Printf.sprintf "Hello v%d" version) want got))

let handshake_tests =
  List.map hello_case
    [
      ( "current version negotiates itself",
        P.protocol_version,
        Printf.sprintf "v%d" P.protocol_version );
      ("older client is rejected (E1111)", P.protocol_version - 1, "E1111");
      ("future client is rejected (E1111)", P.protocol_version + 1, "E1111");
    ]
  @ [
    Alcotest.test_case "Q_prob answers equal the engine" `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        let e = List.hd entries in
        let u = e.T.unit_name in
        with_server (fun path _srv ->
            raw_session path (fun send recv ->
                send (P.Hello { version = P.protocol_version });
                (match recv () with
                | P.R_hello _ -> ()
                | _ -> Alcotest.fail "expected R_hello");
                send (P.Open_hli (wire_of entries));
                (match recv () with
                | P.R_opened _ -> ()
                | _ -> Alcotest.fail "expected R_opened");
                let idx = Q.build e in
                let pairs =
                  match take 5 (items_of_entry e) with
                  | a :: rest -> (a, a) :: List.map (fun b -> (a, b)) rest
                  | [] -> Alcotest.fail "workload has no items"
                in
                send
                  (P.Batch
                     (List.map (fun (a, b) -> P.Q_prob { u; a; b }) pairs));
                match recv () with
                | P.R_results answers ->
                    List.iter2
                      (fun (a, b) ans ->
                        match ans with
                        | P.A_prob ans ->
                            Alcotest.check prob_result
                              (Printf.sprintf "prob %d %d" a b)
                              (Q.get_equiv_prob idx a b) ans
                        | _ -> Alcotest.fail "expected an A_prob answer")
                      pairs answers
                | _ -> Alcotest.fail "expected R_results")));
  ]

(* ------------------------------------------------------------------ *)
(* Pipelining                                                          *)
(* ------------------------------------------------------------------ *)

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: r ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 r
        else go acc (x :: cur) (k + 1) r
  in
  go [] [] 0 l

let with_pipelined_client ?(pipeline = 8) path f =
  let cl = C.connect ~timeout:10.0 ~pipeline path in
  Fun.protect ~finally:(fun () -> C.close cl) (fun () -> f cl)

let pipeline_tests =
  [
    Alcotest.test_case "8-in-flight batches correlate against the oracle"
      `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        let e = List.hd entries in
        let u = e.T.unit_name in
        let idx = Q.build e in
        let items = take 10 (items_of_entry e) in
        let pairs =
          List.concat_map (fun a -> List.map (fun b -> (a, b)) items) items
        in
        (* uneven batch sizes so a shifted reply can't count-match *)
        let batches =
          List.mapi
            (fun i c ->
              List.map (fun (a, b) -> P.Q_equiv { u; a; b }) (take (1 + (i mod 3)) c))
            (chunks 3 pairs)
        in
        let oracle =
          List.map
            (List.map (function
              | P.Q_equiv { a; b; _ } -> P.A_equiv (Q.get_equiv_acc idx a b)
              | _ -> assert false))
            batches
        in
        with_server (fun path _srv ->
            with_pipelined_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                let answers = C.query_batches cl batches in
                Alcotest.(check bool)
                  "pipelined answers positionally equal the oracle" true
                  (answers = oracle))));
    Alcotest.test_case "pipelined maintenance defers and correlates acks"
      `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        let e = List.find (fun e -> items_of_entry e <> []) entries in
        let u = e.T.unit_name in
        match items_of_entry e with
        | i0 :: rest ->
            let like = match rest with i :: _ -> i | [] -> i0 in
            let mt = M.start e in
            M.delete_item mt i0;
            let gid = M.gen_item mt ~like ~line:5 in
            let _entry', idx' = M.commit mt in
            with_server (fun path _srv ->
                with_pipelined_client path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of [ e ]));
                    C.notify_delete cl ~u i0;
                    Alcotest.(check bool)
                      "delete ack deferred" true
                      (C.pending cl > 0);
                    (* a reply-bearing op must first drain the ack *)
                    let gid_r = C.notify_gen cl ~u ~like ~line:5 in
                    Alcotest.(check int) "generated id" gid gid_r;
                    Alcotest.(check int) "acks drained by sync op" 0
                      (C.pending cl);
                    C.refresh cl ~u;
                    C.flush cl;
                    Alcotest.(check int) "flush drains" 0 (C.pending cl);
                    List.iter
                      (fun a ->
                        Alcotest.check equiv_result
                          (Printf.sprintf "post-edit equiv %d" a)
                          (Q.get_equiv_acc idx' a gid)
                          (C.equiv_acc cl ~u a gid))
                      (take 8 (gid :: items_of_entry e))))
        | [] -> Alcotest.fail "workload has no items");
    Alcotest.test_case "out-of-sequence reply is rejected with E1105" `Quick
      (fun () ->
        (* a rogue server that handshakes honestly, then answers the
           Batch with an R_ack: the client must refuse to mis-correlate *)
        let path = fresh_socket () in
        let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind listen (Unix.ADDR_UNIX path);
        Unix.listen listen 1;
        let d =
          Domain.spawn (fun () ->
              let fd, _ = Unix.accept listen in
              let rd = P.reader fd in
              (match P.recv_request ~timeout:10.0 rd with
              | P.Got (P.Hello _) ->
                  P.send_response fd
                    (P.R_hello { version = P.protocol_version; shm_dir = None })
              | _ -> ());
              (match P.recv_request ~timeout:10.0 rd with
              | P.Got (P.Batch _) -> P.send_response fd P.R_ack
              | _ -> ());
              (* linger long enough for the client to read the bogus
                 reply, then vanish *)
              (try ignore (P.recv_request ~timeout:2.0 rd) with _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ())
        in
        Fun.protect
          ~finally:(fun () ->
            Domain.join d;
            (try Unix.close listen with Unix.Unix_error _ -> ());
            try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let cl = C.connect ~timeout:5.0 ~pipeline:4 path in
            expect_code "E1105" (fun () ->
                C.query_batch cl [ P.Q_equiv { u = "u"; a = 1; b = 1 } ]);
            C.close cl));
    Alcotest.test_case "server shutdown mid-pipeline fails fast with E1110"
      `Quick (fun () ->
        let entries = Lazy.force wc_entries in
        with_server (fun path srv ->
            with_pipelined_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                let u = (List.hd entries).T.unit_name in
                Hli_server.Server.initiate_shutdown srv;
                let batches =
                  List.init 64 (fun i -> [ P.Q_equiv { u; a = i; b = i } ])
                in
                let rec poke n =
                  if n = 0 then Alcotest.fail "no E1110 after shutdown"
                  else
                    match C.query_batches cl batches with
                    | _ ->
                        Unix.sleepf 0.01;
                        poke (n - 1)
                    | exception Diagnostics.Diagnostic d ->
                        Alcotest.(check bool)
                          (Printf.sprintf "fault code %s" d.Diagnostics.code)
                          true
                          (List.mem d.Diagnostics.code [ "E1110"; "E1112" ])
                in
                poke 200)));
  ]

(* ------------------------------------------------------------------ *)
(* Wire I/O: partial writes, jammed peers, EINTR                       *)
(* ------------------------------------------------------------------ *)

let tiny_buffered_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* as small as the kernel will let us: forces many partial writes *)
  Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
  Unix.setsockopt_int b Unix.SO_RCVBUF 4096;
  Unix.set_nonblock a;
  (a, b)

let wire_io_tests =
  [
    Alcotest.test_case
      "write_all survives tiny buffers and partial writes intact" `Quick
      (fun () ->
        let a, b = tiny_buffered_socketpair () in
        let payload = String.init 262144 (fun i -> Char.chr (i land 0xff)) in
        let frame = P.response_to_string (P.R_stats payload) in
        let reader_d =
          Domain.spawn (fun () ->
              let rd = P.reader b in
              let r = P.recv_response ~timeout:10.0 rd in
              (try Unix.close b with Unix.Unix_error _ -> ());
              r)
        in
        P.write_all ~deadline:(P.now () +. 10.0) a frame;
        let got = Domain.join reader_d in
        (try Unix.close a with Unix.Unix_error _ -> ());
        Alcotest.(check bool)
          "no dropped tail, no corruption" true
          (got = P.R_stats payload));
    Alcotest.test_case "write_all against a jammed peer raises E1109" `Quick
      (fun () ->
        let a, b = tiny_buffered_socketpair () in
        let frame = P.response_to_string (P.R_stats (String.make 1048576 'x')) in
        (match
           P.write_all ~deadline:(P.now () +. 0.2) a frame
         with
        | () -> Alcotest.fail "expected E1109 on a never-read socket"
        | exception S.Corrupt c ->
            Alcotest.(check string) "code" "E1109" c.S.c_code);
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ());
    Alcotest.test_case "wire session survives an EINTR signal storm" `Quick
      (fun () ->
        let entries = Lazy.force wc_entries in
        let ticks = ref 0 in
        let old =
          Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks))
        in
        let storm = { Unix.it_interval = 0.001; it_value = 0.001 } in
        ignore (Unix.setitimer Unix.ITIMER_REAL storm);
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_interval = 0.0; it_value = 0.0 });
            ignore (Sys.signal Sys.sigalrm old))
          (fun () ->
            with_server (fun path _srv ->
                with_client path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of entries));
                    let e = List.hd entries in
                    let idx = Q.build e in
                    let items = take 8 (items_of_entry e) in
                    List.iter
                      (fun a ->
                        List.iter
                          (fun b ->
                            Alcotest.check equiv_result
                              (Printf.sprintf "equiv %d %d under signals" a b)
                              (Q.get_equiv_acc idx a b)
                              (C.equiv_acc cl ~u:e.T.unit_name a b))
                          items)
                      items)));
        Alcotest.(check bool) "the storm actually fired" true (!ticks > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Delta uploads (protocol v3)                                         *)
(* ------------------------------------------------------------------ *)

(* Pull the three delta counters out of the server stats JSON. *)
let delta_counters json =
  let key = "\"delta\":{\"opens\":" in
  let klen = String.length key and n = String.length json in
  let rec find i =
    if i + klen > n then Alcotest.fail "stats JSON lacks the delta object"
    else if String.sub json i klen = key then i + klen
    else find (i + 1)
  in
  let start = find 0 in
  Scanf.sscanf
    (String.sub json start (min 80 (n - start)))
    "%d,\"entries_reused\":%d,\"entries_filled\":%d"
    (fun opens reused filled -> (opens, reused, filled))

let stats_of path =
  with_client path (fun cl -> delta_counters (C.server_stats cl))

(* Two programs, one array subscript apart in [leaf] (the offset lands
   in its section/class strings, so leaf's HLI entry really differs —
   a plain constant edit wouldn't change the entry at all): every
   other entry is byte-identical, which is exactly what the delta
   upload is supposed to exploit. *)
let delta_src mid =
  "int g;\nint a[10];\n"
  ^ Printf.sprintf "int leaf(int n) { a[n + %d] = n; return g + n; }\n" mid
  ^ "int caller(int n) { return leaf(n) + 1; }\n"
  ^ "int lone(int n) { return n * 7; }\n"
  ^ "int main() { return caller(2) + lone(3); }\n"

let delta_entries mid =
  Harness.Pipeline.build_hli_entries
    (Srclang.Typecheck.program_of_string (delta_src mid))

let delta_tests =
  [
    Alcotest.test_case "a re-opened session reuses the entry store" `Quick
      (fun () ->
        let entries = delta_entries 1 in
        let n = List.length entries in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries)));
            let o1, r1, f1 = stats_of path in
            Alcotest.(check (pair int int)) "cold open fills everything"
              (0, n) (r1, f1);
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                List.iter (check_unit_against_local cl) entries);
            let o2, r2, f2 = stats_of path in
            Alcotest.(check int) "both opens were deltas" (o1 + 1) o2;
            Alcotest.(check (pair int int)) "warm open ships nothing"
              (n, f1) (r2 - r1, f2)));
    Alcotest.test_case "an edited function ships only its entry" `Quick
      (fun () ->
        let before = delta_entries 1 and after = delta_entries 2 in
        with_server (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of before)));
            let _, _, f1 = stats_of path in
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of after));
                List.iter (check_unit_against_local cl) after);
            let _, r2, f2 = stats_of path in
            Alcotest.(check int) "one entry crossed the wire" (f1 + 1) f2;
            Alcotest.(check int) "the rest replayed from the store"
              (List.length after - 1) r2));
    Alcotest.test_case "eviction under store-cap refills, never misanswers"
      `Quick (fun () ->
        let entries = delta_entries 1 in
        let n = List.length entries in
        (* a 1-byte store keeps nothing, so every open must ship every
           entry again — correctness must not depend on reuse *)
        with_server ~store_cap:1 (fun path _srv ->
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries)));
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                List.iter (check_unit_against_local cl) entries);
            let _, reused, filled = stats_of path in
            Alcotest.(check (pair int int)) "no reuse, all refilled" (0, 2 * n)
              (reused, filled)));
    Alcotest.test_case "Delta_fill without a pending open answers E1106"
      `Quick (fun () ->
        with_server (fun path _srv ->
            let fd = raw_connect path in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let rd = P.reader fd in
                let send r =
                  let b = P.request_to_string r in
                  ignore (Unix.write_substring fd b 0 (String.length b))
                in
                send (P.Hello { version = P.protocol_version });
                (match P.recv_response ~timeout:10.0 rd with
                | P.R_hello _ -> ()
                | _ -> Alcotest.fail "expected R_hello");
                send (P.Delta_fill [ "junk" ]);
                match P.recv_response ~timeout:10.0 rd with
                | P.R_error { e_code; _ } ->
                    Alcotest.(check string) "code" "E1106" e_code
                | _ -> Alcotest.fail "expected R_error E1106")));
    Alcotest.test_case "abandoned negotiation: fresh session resyncs clean"
      `Quick (fun () ->
        let entries = delta_entries 1 in
        with_server (fun path _srv ->
            (* a raw peer opens a delta, is told what to fill, and dies
               mid-negotiation without sending the fill *)
            let fd = raw_connect path in
            (let rd = P.reader fd in
             let refs =
               List.map
                 (fun (name, p) -> (name, S.entry_hash_of_payload p))
                 (S.split_container (wire_of entries))
             in
             let b = P.request_to_string (P.Hello { version = P.protocol_version }) in
             ignore (Unix.write_substring fd b 0 (String.length b));
             (match P.recv_response ~timeout:10.0 rd with
             | P.R_hello _ -> ()
             | _ -> Alcotest.fail "expected R_hello");
             let b = P.request_to_string (P.Open_delta refs) in
             ignore (Unix.write_substring fd b 0 (String.length b));
             match P.recv_response ~timeout:10.0 rd with
             | P.R_delta_need missing ->
                 Alcotest.(check bool) "server asked for the entries" true
                   (missing <> [])
             | _ -> Alcotest.fail "expected R_delta_need");
            Unix.close fd;
            (* the store was never fed, yet a fresh session must come up
               with correct answers (delta negotiation + fill) *)
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                List.iter (check_unit_against_local cl) entries)));
    Alcotest.test_case "any other request abandons the pending delta" `Quick
      (fun () ->
        let entries = delta_entries 1 in
        with_server (fun path _srv ->
            let fd = raw_connect path in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let rd = P.reader fd in
                let send r =
                  let b = P.request_to_string r in
                  ignore (Unix.write_substring fd b 0 (String.length b))
                in
                let recv () = P.recv_response ~timeout:10.0 rd in
                send (P.Hello { version = P.protocol_version });
                (match recv () with
                | P.R_hello _ -> ()
                | _ -> Alcotest.fail "expected R_hello");
                let split = S.split_container (wire_of entries) in
                let refs =
                  List.map
                    (fun (name, p) -> (name, S.entry_hash_of_payload p))
                    split
                in
                send (P.Open_delta refs);
                (match recv () with
                | P.R_delta_need _ -> ()
                | _ -> Alcotest.fail "expected R_delta_need");
                (* an interleaved request voids the negotiation... *)
                send P.Stats;
                (match recv () with
                | P.R_stats _ -> ()
                | _ -> Alcotest.fail "expected R_stats");
                (* ...so the fill that follows is a state violation *)
                send (P.Delta_fill (List.map snd split));
                match recv () with
                | P.R_error { e_code; _ } ->
                    Alcotest.(check string) "code" "E1106" e_code
                | _ -> Alcotest.fail "expected R_error E1106")));
    Alcotest.test_case "refresh only rebuilds dirty units' segments" `Quick
      (fun () ->
        let entries = delta_entries 1 in
        let read_bytes p =
          In_channel.with_open_bin p In_channel.input_all
        in
        let seg_of dir u =
          let base = Digest.to_hex (Digest.string u) ^ ".hlix" in
          match
            List.find_opt (fun p -> Filename.basename p = base)
              (hlix_files dir)
          with
          | Some p -> p
          | None -> Alcotest.failf "no segment for %s" u
        in
        let skips json =
          let key = "\"refresh_skips\":" in
          let klen = String.length key and n = String.length json in
          let rec find i =
            if i + klen > n then Alcotest.fail "stats lack refresh_skips"
            else if String.sub json i klen = key then i + klen
            else find (i + 1)
          in
          Scanf.sscanf (String.sub json (find 0) 12) "%d" Fun.id
        in
        let e = List.find (fun e -> items_of_entry e <> []) entries in
        let touched = e.T.unit_name in
        with_shm_dir (fun dir ->
            with_server ~shm_dir:dir (fun path _srv ->
                with_client ~shm:true path (fun cl ->
                    ignore (C.open_hli_bytes cl (wire_of entries));
                    let before =
                      List.map
                        (fun (e : T.hli_entry) ->
                          let p = seg_of dir e.T.unit_name in
                          (e.T.unit_name, p, read_bytes p))
                        entries
                    in
                    let skips0 = skips (C.server_stats cl) in
                    C.notify_delete cl ~u:touched
                      (List.hd (items_of_entry e));
                    (* an end-of-pass barrier sweeps every unit, but
                       only the edited one may be rebuilt *)
                    List.iter
                      (fun (e : T.hli_entry) -> C.refresh cl ~u:e.T.unit_name)
                      entries;
                    List.iter
                      (fun (u, p, old) ->
                        if u = touched then
                          Alcotest.(check bool)
                            (u ^ " segment was rebuilt") false
                            (read_bytes p = old)
                        else
                          Alcotest.(check bool)
                            (u ^ " segment byte-identical, generation \
                              word included")
                            true
                            (read_bytes p = old))
                      before;
                    Alcotest.(check int) "clean units were skipped"
                      (skips0 + List.length entries - 1)
                      (skips (C.server_stats cl));
                    (* a rejected unroll edits nothing, so the barrier
                       after it is a skip too *)
                    let seg = seg_of dir touched in
                    let old = read_bytes seg
                    and skips1 = skips (C.server_stats cl) in
                    expect_code "E0701" (fun () ->
                        C.notify_unroll cl ~u:touched ~rid:1 ~factor:1);
                    C.refresh cl ~u:touched;
                    Alcotest.(check bool)
                      "segment byte-identical after a rejected unroll" true
                      (read_bytes seg = old);
                    Alcotest.(check int) "the rejected unroll's refresh was skipped"
                      (skips1 + 1)
                      (skips (C.server_stats cl))))));
    Alcotest.test_case "re-opening identical content leaves the store fixed"
      `Quick (fun () ->
        let entries = delta_entries 1 in
        with_server (fun path _srv ->
            let store_stats () =
              with_client path (fun cl ->
                  let json = C.server_stats cl in
                  let key = "\"store\":{\"bytes\":" in
                  let klen = String.length key and n = String.length json in
                  let rec find i =
                    if i + klen > n then
                      Alcotest.fail "stats JSON lacks the store object"
                    else if String.sub json i klen = key then i + klen
                    else find (i + 1)
                  in
                  let start = find 0 in
                  Scanf.sscanf
                    (String.sub json start (min 60 (n - start)))
                    "%d,\"entries\":%d"
                    (fun b e -> (b, e)))
            in
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries)));
            let b1, n1 = store_stats () in
            Alcotest.(check bool) "first open stored something" true (b1 > 0);
            Alcotest.(check int) "one store entry per unit"
              (List.length entries) n1;
            (* repeated identical opens must not double-insert: the
               store's accounted bytes stay exactly fixed *)
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries)));
            with_client path (fun cl ->
                ignore (C.open_hli_bytes cl (wire_of entries));
                List.iter (check_unit_against_local cl) entries);
            Alcotest.(check (pair int int))
              "store_bytes and entry count unchanged" (b1, n1)
              (store_stats ())));
  ]

let () =
  Alcotest.run "server"
    [
      ("differential", differential_tests);
      ("shm", shm_tests);
      ("faults", fault_tests);
      ("handshake", handshake_tests);
      ("pipelining", pipeline_tests);
      ("wire-io", wire_io_tests);
      ("delta", delta_tests);
    ]
