(* Fuzz harness for the hlid wire protocol (lib/server/protocol.ml).

   Same rule as the serializer harness: the pure frame codec must
   either return a frame or raise [Serialize.Corrupt] with an E11xx
   protocol code — any other exception, any non-protocol code, or a
   surviving frame that does not re-encode/re-decode to itself, is a
   bug.  The corpus is one exemplar of every request and response
   frame kind plus a stream of random frames from the shared
   generators (test/testgen.ml).

   1. Round-trip: encode/decode is the identity on every corpus frame.
   2. Truncation: every strict prefix of every encoded frame is
      rejected with a precise E11xx code (never accepted, never a
      crash, never an E06xx serializer code leaking through).
   3. Mutation: deterministic single-byte xor of every frame either
      rejects with E11xx or decodes to a frame that re-encodes and
      re-decodes consistently (a tag flip can legally turn one
      single-string frame into another).
   4. Frame trains: pipelined concatenations of random frames decode
      positionally through the streaming parser
      ([parse_frame]/[decode_request_at]), and every random cut point
      leaves the parser waiting for more bytes (never a spurious
      accept or reject of a partial tail).

   Runs under dune runtest with a modest default budget; the
   @protocol-fuzz alias (pulled into @smoke) raises it via FUZZ_ITERS.
   FUZZ_SEED varies the deterministic stream. *)

module P = Hli_server.Protocol
module S = Hli_core.Serialize

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let iters = env_int "FUZZ_ITERS" 100
let seed = env_int "FUZZ_SEED" 0x484c4944 (* "HLID" *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL: " ^ m))
    fmt

(* deterministic 48-bit LCG so a failing run reproduces exactly *)
let rng = ref seed

let rand_int bound =
  rng := ((!rng * 25214903917) + 11) land 0xffffffffffff;
  (!rng lsr 16) mod bound

(* ------------------------------------------------------------------ *)
(* Corpus: one exemplar per frame kind, then random frames             *)
(* ------------------------------------------------------------------ *)

let sample_entry =
  {
    Hli_core.Tables.unit_name = "u";
    line_table =
      [
        {
          Hli_core.Tables.line_no = 3;
          items = [ { Hli_core.Tables.item_id = 1; acc = Hli_core.Tables.Acc_load } ];
        };
      ];
    regions =
      [
        {
          Hli_core.Tables.region_id = 1;
          rtype = Hli_core.Tables.Region_unit;
          parent = None;
          first_line = 1;
          last_line = 9;
          eq_classes = [];
          aliases = [];
          lcdds = [];
          callrefmods = [];
        };
      ];
  }

let exemplar_requests : (string * P.request) list =
  [
    ("hello", P.Hello { version = P.protocol_version });
    ("open_hli", P.Open_hli (S.to_bytes { Hli_core.Tables.entries = [ sample_entry ] }));
    ( "batch",
      P.Batch
        [
          P.Q_equiv { u = "u"; a = 1; b = 2 };
          P.Q_call { u = "u"; call = 3; mem = 1 };
          P.Q_equiv { u = "u"; a = 3; b = 99991 };
          P.Q_hoist_target { u = "u"; item = 1 };
        ] );
    ("notify_delete", P.Notify_delete { u = "u"; item = 1 });
    ("notify_gen", P.Notify_gen { u = "u"; like = 1; line = 3 });
    ("notify_move", P.Notify_move { u = "u"; item = 1; target_rid = 1 });
    ("notify_unroll", P.Notify_unroll { u = "u"; rid = 1; factor = 4 });
    ("refresh", P.Refresh "u");
    ("line_table", P.Line_table "u");
    ("stats", P.Stats);
    ("close", P.Close);
    ("shm_list", P.Shm_list);
    ( "open_delta",
      P.Open_delta
        [
          ("u", Digest.string "u's entry payload");
          ("v", Digest.string "v's entry payload");
        ] );
    ("open_delta_empty", P.Open_delta []);
    ( "delta_fill",
      P.Delta_fill [ S.entry_to_bytes sample_entry; "second payload" ] );
  ]

let exemplar_responses : (string * P.response) list =
  [
    ("r_hello", P.R_hello { version = P.protocol_version; shm_dir = None });
    ( "r_hello_shm",
      P.R_hello
        { version = P.protocol_version; shm_dir = Some "/tmp/hlid-shm/sess-1" }
    );
    ("r_opened", P.R_opened [ ("u", [ 1; 2 ]); ("v", []) ]);
    ( "r_results",
      P.R_results
        [
          P.A_equiv Hli_core.Query.Equiv_none;
          P.A_equiv (Hli_core.Query.Equiv_same Hli_core.Tables.Maybe);
          P.A_call Hli_core.Query.Call_refmod;
          P.A_equiv (Hli_core.Query.Equiv_same Hli_core.Tables.Definitely);
          P.A_equiv Hli_core.Query.Equiv_alias;
          P.A_equiv Hli_core.Query.Equiv_unknown;
          P.A_hoist_target (Some 1);
          P.A_hoist_target None;
        ] );
    ("r_ack", P.R_ack);
    ("r_gen", P.R_gen 7);
    ("r_moved", P.R_moved false);
    ( "r_unrolled",
      P.R_unrolled
        {
          Hli_core.Maintain.copies = [ (1, [| 10; 11 |]) ];
          new_classes = [ (5, [| 50; 51 |]) ];
        } );
    ("r_line_table", P.R_line_table sample_entry.Hli_core.Tables.line_table);
    ("r_stats", P.R_stats "{\"sessions\":1}");
    ("r_closing", P.R_closing);
    ( "r_shm_list",
      P.R_shm_list
        [ ("u", "/tmp/hlid-shm/sess-1/aa.hlix"); ("v", "/tmp/x.hlix") ] );
    ("r_shm_list_empty", P.R_shm_list []);
    ("r_delta_need", P.R_delta_need [ 0; 3; 17 ]);
    ("r_delta_need_none", P.R_delta_need []);
    ("r_error", P.R_error { e_code = "E1107"; e_msg = "unknown unit" });
  ]

type 'a outcome = Decoded of 'a | Rejected of string | Crashed of exn

let decode of_string b =
  match of_string b with
  | f -> Decoded f
  | exception S.Corrupt c -> Rejected c.S.c_code
  | exception e -> Crashed e

(* ------------------------------------------------------------------ *)
(* The three phases, generic over request/response                     *)
(* ------------------------------------------------------------------ *)

let round_trip name to_string of_string frame =
  let bytes = to_string frame in
  match decode of_string bytes with
  | Decoded f when f = frame -> ()
  | Decoded _ -> fail "%s: frame round-trip mismatch" name
  | Rejected code -> fail "%s: own encoding rejected with %s" name code
  | Crashed e -> fail "%s: decoder crashed: %s" name (Printexc.to_string e)

let truncations name of_string bytes counter =
  for len = 0 to String.length bytes - 1 do
    incr counter;
    match decode of_string (String.sub bytes 0 len) with
    | Rejected code when P.is_protocol_code code -> ()
    | Rejected code -> fail "%s: prefix %d rejected with non-protocol %s" name len code
    | Decoded _ -> fail "%s: strict prefix of length %d decoded" name len
    | Crashed e ->
        fail "%s: truncation at %d crashed: %s" name len (Printexc.to_string e)
  done

let mutations name to_string of_string bytes ~muts ~survivors =
  let n = String.length bytes in
  for _ = 1 to iters do
    incr muts;
    let pos = rand_int n in
    let x = 1 + rand_int 255 in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
    match decode of_string (Bytes.to_string b) with
    | Rejected code when P.is_protocol_code code -> ()
    | Rejected code ->
        fail "%s: mutant at byte %d rejected with non-protocol %s" name pos code
    | Crashed e ->
        fail "%s: mutation at byte %d (xor %#x) crashed: %s" name pos x
          (Printexc.to_string e)
    | Decoded f' -> (
        incr survivors;
        match decode of_string (to_string f') with
        | Decoded f'' when f'' = f' -> ()
        | _ -> fail "%s: surviving mutant at byte %d fails re-round-trip" name pos)
  done

let sweep kind to_string of_string frames ~truncs ~muts ~survivors =
  List.iter
    (fun (name, frame) ->
      let name = kind ^ "/" ^ name in
      round_trip name to_string of_string frame;
      let bytes = to_string frame in
      truncations name of_string bytes truncs;
      mutations name to_string of_string bytes ~muts ~survivors)
    frames

let () =
  let truncs = ref 0 and muts = ref 0 and survivors = ref 0 in
  let req_of s = P.request_of_string s in
  let resp_of s = P.response_of_string s in
  (* exemplars: every frame kind *)
  sweep "req" P.request_to_string req_of exemplar_requests ~truncs ~muts
    ~survivors;
  sweep "resp" P.response_to_string resp_of exemplar_responses ~truncs ~muts
    ~survivors;
  (* random requests from the shared generator *)
  let rand = Random.State.make [| seed |] in
  let n = max 25 (iters / 4) in
  for i = 1 to n do
    let r = QCheck.Gen.generate1 ~rand Testgen.gen_request in
    let name = Printf.sprintf "req/random-%d" i in
    round_trip name P.request_to_string req_of r;
    let bytes = P.request_to_string r in
    (* random frames get a lighter mutation budget; truncation is
       all-prefix as everywhere else *)
    truncations name req_of bytes truncs;
    for _ = 1 to 8 do
      incr muts;
      let pos = rand_int (String.length bytes) in
      let x = 1 + rand_int 255 in
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match decode req_of (Bytes.to_string b) with
      | Rejected code when P.is_protocol_code code -> ()
      | Rejected code ->
          fail "%s: mutant rejected with non-protocol %s" name code
      | Crashed e -> fail "%s: mutant crashed: %s" name (Printexc.to_string e)
      | Decoded f' -> (
          incr survivors;
          match decode req_of (P.request_to_string f') with
          | Decoded f'' when f'' = f' -> ()
          | _ -> fail "%s: surviving mutant fails re-round-trip" name)
    done
  done;
  (* pipelined frame trains through the streaming parser *)
  let trains = ref 0 and cuts = ref 0 in
  let n_trains = max 10 (iters / 10) in
  for t = 1 to n_trains do
    incr trains;
    let name = Printf.sprintf "train-%d" t in
    let k = 2 + rand_int 6 in
    let reqs =
      List.init k (fun _ -> QCheck.Gen.generate1 ~rand Testgen.gen_request)
    in
    let train = String.concat "" (List.map P.request_to_string reqs) in
    let buf = Bytes.of_string train in
    (* walk [buf.[0..len)] frame by frame; returns the decoded prefix
       and whether the tail is a clean "need more bytes" *)
    let walk len =
      let rec go ofs acc =
        if ofs = len then (List.rev acc, true)
        else
          match
            P.parse_frame ~kind:"request" ~known:P.is_request_tag buf ~ofs
              ~len:(len - ofs)
          with
          | None -> (List.rev acc, false)
          | Some fi -> go fi.P.f_end (P.decode_request_at buf fi :: acc)
      in
      go 0 []
    in
    (match walk (String.length train) with
    | decoded, true when decoded = reqs -> ()
    | decoded, complete ->
        fail "%s: %d-frame train decoded %d frames (complete=%b)" name k
          (List.length decoded) complete
    | exception e -> fail "%s: train walk crashed: %s" name (Printexc.to_string e));
    (* random cut points: a partial tail must leave the parser waiting *)
    for _ = 1 to 32 do
      incr cuts;
      let len = rand_int (String.length train + 1) in
      match walk len with
      | decoded, _ ->
          (* every fully-contained frame must decode to its original *)
          let m = List.length decoded in
          if decoded <> List.filteri (fun i _ -> i < m) reqs then
            fail "%s: cut at %d mis-decoded a complete frame" name len
      | exception S.Corrupt c when P.is_protocol_code c.S.c_code ->
          fail "%s: cut at %d rejected (%s) instead of waiting" name len
            c.S.c_code
      | exception e ->
          fail "%s: cut at %d crashed: %s" name len (Printexc.to_string e)
    done
  done;
  Printf.printf
    "protocol fuzz: %d exemplar frames + %d random requests: %d truncations, \
     %d mutations (%d mutants decoded, all re-round-tripped), %d frame \
     trains (%d cut points)\n"
    (List.length exemplar_requests + List.length exemplar_responses)
    n !truncs !muts !survivors !trains !cuts;
  if !failures > 0 then begin
    Printf.eprintf "protocol fuzz: %d failure(s) (FUZZ_SEED=%d FUZZ_ITERS=%d)\n"
      !failures seed iters;
    exit 1
  end
