(** Blocking hlid client, with optional request pipelining.

    One {!t} is one server session (one socket, one opened HLI file).
    It carries the back-end session's four queries (equiv, equiv-prob,
    call, hoist-target) and its maintenance calls.  Each query is one
    [Batch] frame, or in shm mode an equiv or call lookup off the
    unit's mapped HLIX segment; nothing is memoized client-side, so
    every answer is the server session's [Maintain.queried] answer.

    Pipelining rides on the server's ordering guarantee: replies come
    back strictly in request order, one per request, so correlation is
    positional — an expectation FIFO records what each in-flight frame
    must be answered with, and a reply that does not match the
    head-of-line expectation is rejected as out-of-sequence (E1105).
    With a window of [pipeline] frames, {!query_batches} keeps up to
    that many [Batch] frames in flight, and the unit-returning
    notifications ([notify_delete], [refresh]) defer their acks — sent
    immediately, collected lazily before the next reply-bearing call.
    Sends drain ready replies first, so both sides can never be
    blocked writing into full socket buffers at once.

    All failures are {!Diagnostics.Diagnostic}: protocol faults carry
    their E11xx code (phase [Net]), and server-relayed errors
    ([R_error]) re-raise under the server's original code, so e.g. a
    relayed E0701 bad-unroll-factor behaves like the local call. *)

module P = Protocol
module S = Hli_core.Serialize
module F = Hli_core.Flatindex

(* what the head-of-line in-flight request must be answered with *)
type expected = E_ack of string | E_results of int

(* One advertised HLIX segment, mapped lazily on first lookup.  The fd
   stays open for the session: a rebuild that outgrows the file is
   detected by [total_len] exceeding the mapping and answered by
   remapping the same (still-open) fd. *)
type shm_unit = {
  su_path : string;
  mutable su_fd : Unix.file_descr option;
  mutable su_map : F.seg option;
  mutable su_vgen : int;
      (** generation at the last successful full validation; a lookup
          under any other generation revalidates (CRC + content hash)
          before trusting the image *)
  mutable su_ok : bool;  (** false: segment failed validation, never retried *)
}

type t = {
  fd : Unix.file_descr;
  rd : P.reader;
  max_frame : int;
  timeout : float;
  pipeline : int;  (** max in-flight frames; 1 = strict request/reply *)
  shm : bool;  (** shared-memory fast path requested *)
  mutable shm_dir : string option;  (** advertised by the server's Hello *)
  mutable shm_hash : string;
      (** digest of the opened HLI container, checked against each
          segment's content hash *)
  shm_units : (string, shm_unit) Hashtbl.t;
  mutable shm_last_u : string;
      (** single-entry lookup cache over [shm_units], hit by physical
          equality: query streams reuse one unit-name string for runs
          of queries, and the per-query string hash is measurable at
          shm rates.  Reset to a fresh sentinel whenever [shm_units]
          changes *)
  mutable shm_last_su : shm_unit option;
  maint_open : (string, unit) Hashtbl.t;
      (** units with uncommitted maintenance: shm lookups fall back to
          the wire until the next [refresh] barrier *)
  expect : expected Queue.t;  (** in-flight expectations, send order *)
}

(* ------------------------------------------------------------------ *)
(* Shm counters (the telemetry "shm" object)                           *)
(* ------------------------------------------------------------------ *)

type shm_stats = {
  maps : int;  (** segment mappings established (remaps included) *)
  generation_retries : int;  (** lookups retried under the seqlock *)
  wire_fallbacks : int;  (** shm-eligible lookups answered on the wire *)
  segment_bytes : int;  (** bytes currently mapped across segments *)
}

let sc_maps = Atomic.make 0
let sc_retries = Atomic.make 0
let sc_fallbacks = Atomic.make 0
let sc_bytes = Atomic.make 0

let shm_stats () =
  {
    maps = Atomic.get sc_maps;
    generation_retries = Atomic.get sc_retries;
    wire_fallbacks = Atomic.get sc_fallbacks;
    segment_bytes = Atomic.get sc_bytes;
  }

(* canonical rendering of the telemetry "shm" object (hli-telemetry-v9) *)
let shm_stats_json () =
  let s = shm_stats () in
  Printf.sprintf
    "{\"maps\":%d,\"generation_retries\":%d,\"wire_fallbacks\":%d,\
     \"segment_bytes\":%d}"
    s.maps s.generation_retries s.wire_fallbacks s.segment_bytes

let net_raise ?at code fmt =
  Fmt.kstr
    (fun m ->
      let m =
        match at with
        | Some at when at >= 0 -> Printf.sprintf "%s (at byte %d)" m at
        | _ -> m
      in
      raise
        (Diagnostics.Diagnostic
           (Diagnostics.make ~code ~phase:Diagnostics.Net
              ~severity:Diagnostics.Error m)))
    fmt

let send cl (req : P.request) =
  match P.send_request ~deadline:(P.now () +. cl.timeout) cl.fd req with
  | () -> ()
  | exception S.Corrupt c ->
      raise (Diagnostics.Diagnostic (P.diagnostic_of_fault c))

let recv_reply cl : P.response =
  match P.recv_response ~max_frame:cl.max_frame ~timeout:cl.timeout cl.rd with
  | P.R_error { e_code; e_msg } -> net_raise e_code "%s" e_msg
  | resp -> resp
  | exception S.Corrupt c ->
      raise (Diagnostics.Diagnostic (P.diagnostic_of_fault c))

(* collect the reply for the oldest in-flight request and check it
   against its expectation; a mismatch means the server answered out
   of sequence (or not at all) and the stream can't be trusted *)
let collect_one cl : P.answer list option =
  match Queue.take_opt cl.expect with
  | None -> net_raise "E1105" "reply collected with no request in flight"
  | Some exp -> (
      let resp = recv_reply cl in
      match (exp, resp) with
      | E_ack _, P.R_ack -> None
      | E_results n, P.R_results l when List.length l = n -> Some l
      | E_results n, P.R_results l ->
          net_raise "E1105"
            "out-of-sequence reply: %d answers to a %d-query batch"
            (List.length l) n
      | E_ack what, _ ->
          net_raise "E1105" "out-of-sequence reply to pipelined %s" what
      | E_results _, _ -> net_raise "E1105" "out-of-sequence reply to Batch")

let in_flight cl = Queue.length cl.expect

(* drain every outstanding expectation (deferred acks and any
   leftover results); every reply-bearing operation starts here so
   the request/reply stream below it is strictly synchronous *)
let drain cl =
  while in_flight cl > 0 do
    ignore (collect_one cl)
  done

let rpc cl (req : P.request) : P.response =
  drain cl;
  send cl req;
  recv_reply cl

let connect ?(timeout = P.default_timeout) ?(max_frame = P.default_max_frame)
    ?(pipeline = 1) ?(shm = false) path : t =
  if pipeline < 1 then invalid_arg "Client.connect: pipeline must be >= 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     net_raise "E1112" "cannot connect to %s: %s" path (Unix.error_message e));
  let cl =
    {
      fd;
      rd = P.reader fd;
      max_frame;
      timeout;
      pipeline;
      shm;
      shm_dir = None;
      shm_hash = "";
      shm_units = Hashtbl.create 8;
      shm_last_u = Bytes.unsafe_to_string (Bytes.create 0);
      shm_last_su = None;
      maint_open = Hashtbl.create 8;
      expect = Queue.create ();
    }
  in
  (match rpc cl (P.Hello { version = P.protocol_version }) with
  | P.R_hello { version; shm_dir } when version = P.protocol_version ->
      if shm then cl.shm_dir <- shm_dir
  | P.R_hello { version; _ } ->
      net_raise "E1111" "protocol version mismatch: client %d, server %d"
        P.protocol_version version
  | _ -> net_raise "E1105" "unexpected response to Hello");
  cl

let drop_shm_unit su =
  (match su.su_map with
  | Some seg ->
      Atomic.fetch_and_add sc_bytes (-Bigarray.Array1.dim seg) |> ignore;
      su.su_map <- None
  | None -> ());
  match su.su_fd with
  | Some fd ->
      su.su_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let close cl =
  Hashtbl.iter (fun _ su -> drop_shm_unit su) cl.shm_units;
  Hashtbl.reset cl.shm_units;
  cl.shm_last_u <- Bytes.unsafe_to_string (Bytes.create 0);
  cl.shm_last_su <- None;
  (* best-effort goodbye; the server also handles a plain EOF *)
  (try
     drain cl;
     P.send_request cl.fd P.Close;
     ignore (P.recv_response ~max_frame:cl.max_frame ~timeout:1.0 cl.rd)
   with _ -> ());
  try Unix.close cl.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Session setup                                                       *)
(* ------------------------------------------------------------------ *)

let expect_opened = function
  | P.R_opened l -> l
  | _ -> net_raise "E1105" "unexpected response to Open"

(* After an open in shm mode: learn which segments the server
   published for this session.  Mapping is lazy (first lookup). *)
let fetch_shm_list cl =
  if cl.shm && cl.shm_dir <> None then begin
    Hashtbl.iter (fun _ su -> drop_shm_unit su) cl.shm_units;
    Hashtbl.reset cl.shm_units;
    cl.shm_last_u <- Bytes.unsafe_to_string (Bytes.create 0);
    cl.shm_last_su <- None;
    match rpc cl P.Shm_list with
    | P.R_shm_list segs ->
        List.iter
          (fun (u, path) ->
            Hashtbl.replace cl.shm_units u
              {
                su_path = path;
                su_fd = None;
                su_map = None;
                su_vgen = -1;
                su_ok = true;
              })
          segs
    | _ -> net_raise "E1105" "unexpected response to Shm_list"
  end

(* like [rpc] but hands back R_error frames instead of raising, so the
   delta open below can tell a clean in-sequence rejection (safe to
   resync over the same socket) from a transport fault (not safe) *)
let rpc_raw cl (req : P.request) : P.response =
  drain cl;
  send cl req;
  match P.recv_response ~max_frame:cl.max_frame ~timeout:cl.timeout cl.rd with
  | resp -> resp
  | exception S.Corrupt c ->
      raise (Diagnostics.Diagnostic (P.diagnostic_of_fault c))

(* Delta open: reference every entry by content hash, ship only what
   the server's cross-session store lacks.  Returns [None] when the
   exchange was answered cleanly but unsuccessfully (an R_error or an
   unexpected reply type) — the reply stream is still aligned, so the
   caller resyncs with a full upload over the same session and the
   answer is never wrong, only slower.  Transport faults (corrupt
   frame, EOF, timeout) raise as usual: the socket can't be trusted
   for a resync. *)
let try_open_delta cl bytes : (string * int list) list option =
  match S.split_container bytes with
  | exception S.Corrupt _ ->
      (* not a splittable HLI container: ship it whole and let the
         server answer authoritatively (its R_error carries the precise
         E06xx code the caller expects) *)
      None
  | split -> (
  let refs =
    List.map (fun (name, p) -> (name, S.entry_hash_of_payload p)) split
  in
  match rpc_raw cl (P.Open_delta refs) with
  | P.R_opened l -> Some l
  | P.R_delta_need idxs -> (
      let payloads = Array.of_list (List.map snd split) in
      let n = Array.length payloads in
      if List.exists (fun i -> i < 0 || i >= n) idxs then None
      else
        match
          rpc_raw cl (P.Delta_fill (List.map (Array.get payloads) idxs))
        with
        | P.R_opened l -> Some l
        | _ -> None)
  | _ -> None)

let open_hli_bytes cl bytes =
  let opened =
    match try_open_delta cl bytes with
    | Some l -> l
    | None -> expect_opened (rpc cl (P.Open_hli bytes))
  in
  cl.shm_hash <- Digest.string bytes;
  fetch_shm_list cl;
  opened

let line_table cl u =
  match rpc cl (P.Line_table u) with
  | P.R_line_table lt -> lt
  | _ -> net_raise "E1105" "unexpected response to Line_table"

let server_stats cl =
  match rpc cl P.Stats with
  | P.R_stats s -> s
  | _ -> net_raise "E1105" "unexpected response to Stats"

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Pipelined fan-out: keep up to [pipeline] Batch frames in flight;
   replies land positionally (the server answers in request order).
   Frames are encoded into a local buffer and flushed in groups of
   half the window, so a window costs a couple of write syscalls, not
   one per frame.  Before blocking on the window: flush, then drain
   whatever replies are already readable — the send path can then
   never deadlock against a server blocked writing replies we aren't
   reading. *)
let query_batches cl (batches : P.query list list) : P.answer list list =
  drain cl;
  let n = List.length batches in
  let results = Array.make n [] in
  let next = ref 0 in
  let collect () =
    (match collect_one cl with
    | Some l -> results.(!next) <- l
    | None -> net_raise "E1105" "out-of-sequence reply (ack for a Batch)");
    incr next
  in
  let buf = Buffer.create 4096 in
  let buffered = ref 0 in
  let pending_exp = ref [] in
  let flush_send () =
    if Buffer.length buf > 0 then begin
      (* drain replies already readable before pushing more bytes, so
         both sides can't end up blocked writing into full buffers *)
      while in_flight cl > 0 && P.readable cl.rd do
        collect ()
      done;
      (match
         P.write_all ~deadline:(P.now () +. cl.timeout) cl.fd
           (Buffer.contents buf)
       with
      | () -> ()
      | exception S.Corrupt c ->
          raise (Diagnostics.Diagnostic (P.diagnostic_of_fault c)));
      List.iter (fun e -> Queue.add e cl.expect) (List.rev !pending_exp);
      pending_exp := [];
      buffered := 0;
      Buffer.clear buf
    end
  in
  (* full-window bursts: one write carries the whole window, and the
     reply drain empties it before the next burst.  Splitting the
     window into smaller writes would overlap client encode with
     server compute, but costs proportionally more syscalls — and the
     amortized syscall wins more than the overlap, decisively so on a
     single-core host. *)
  let group = cl.pipeline in
  List.iter
    (fun qs ->
      (* window full: collect replies until a slot opens.  Collecting
         (not flushing) keeps the steady state at [group] frames per
         write — flushing here would degenerate to one frame per
         syscall once the window first fills. *)
      while in_flight cl + !buffered >= cl.pipeline do
        if in_flight cl = 0 then flush_send () else collect ()
      done;
      P.encode_request_into buf (P.Batch qs);
      pending_exp := E_results (List.length qs) :: !pending_exp;
      incr buffered;
      if !buffered >= group then flush_send ())
    batches;
  flush_send ();
  while in_flight cl > 0 do
    collect ()
  done;
  Array.to_list results

let query_batch cl (qs : P.query list) : P.answer list =
  match query_batches cl [ qs ] with [ l ] -> l | _ -> assert false

let one cl q =
  match query_batch cl [ q ] with [ a ] -> a | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Shared-memory fast path                                             *)
(* ------------------------------------------------------------------ *)

(* Map (or remap, after a grow) the unit's segment.  The mapping must
   be MAP_SHARED so the server's in-place seqlock rebuilds are
   visible through it, which requires an O_RDWR fd; the client never
   writes. *)
let su_seg su : F.seg =
  match su.su_map with
  | Some seg -> seg
  | None ->
      let fd =
        match su.su_fd with
        | Some fd -> fd
        | None ->
            let fd = Unix.openfile su.su_path [ Unix.O_RDWR ] 0 in
            su.su_fd <- Some fd;
            fd
      in
      let cap = (Unix.fstat fd).Unix.st_size in
      let seg =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout true
             [| cap |])
      in
      su.su_map <- Some seg;
      Atomic.incr sc_maps;
      Atomic.fetch_and_add sc_bytes cap |> ignore;
      seg

let shm_attempts = 3

(* Answer [f seg] off the unit's mapped segment under the seqlock
   protocol, or [None] to fall back to the wire.  A lookup is accepted
   only when the generation word is even and unchanged across it; a
   generation that moved (or torn bytes raising {!F.Torn}) retries up
   to {!shm_attempts} times.  The image is fully revalidated (CRC +
   content hash) whenever the generation differs from the last
   validated one; a segment that fails validation under a {e stable}
   generation is corrupt and permanently withdrawn. *)
let with_seg cl u (f : F.seg -> 'a) : 'a option =
  if not cl.shm then None
  else
    let su_opt =
      if cl.shm_last_u == u then cl.shm_last_su
      else begin
        let r = Hashtbl.find_opt cl.shm_units u in
        cl.shm_last_u <- u;
        cl.shm_last_su <- r;
        r
      end
    in
    match su_opt with
    | None -> None (* nothing advertised for this unit: plain wire *)
    | Some su ->
        if
          (not su.su_ok)
          || (Hashtbl.length cl.maint_open > 0 && Hashtbl.mem cl.maint_open u)
        then begin
          Atomic.incr sc_fallbacks;
          None
        end
        else begin
          let fallback () =
            Atomic.incr sc_fallbacks;
            None
          in
          let rec go tries =
            if tries = 0 then fallback ()
            else
              let retry () =
                Atomic.incr sc_retries;
                go (tries - 1)
              in
              match su_seg su with
              | exception (Unix.Unix_error _ | Sys_error _) ->
                  (* segment gone (session reaped, dir cleaned) *)
                  su.su_ok <- false;
                  fallback ()
              | seg -> (
                  match F.generation seg with
                  | exception F.Torn ->
                      su.su_ok <- false;
                      fallback ()
                  | g1 when g1 land 1 = 1 -> retry ()
                  | g1 -> (
                      match
                        if F.total_len seg > Bigarray.Array1.dim seg then begin
                          (* the file grew under a rebuild: remap it *)
                          Atomic.fetch_and_add sc_bytes
                            (-Bigarray.Array1.dim seg)
                          |> ignore;
                          su.su_map <- None;
                          `Retry
                        end
                        else if g1 <> su.su_vgen then begin
                          match F.validate ~expect_hash:cl.shm_hash seg with
                          | () ->
                              if F.generation seg = g1 then begin
                                su.su_vgen <- g1;
                                `Go
                              end
                              else `Retry
                          | exception (S.Corrupt _ | F.Torn) ->
                              if F.generation seg <> g1 then `Retry
                              else begin
                                (* corrupt under a stable generation *)
                                su.su_ok <- false;
                                `Dead
                              end
                        end
                        else `Go
                      with
                      | `Retry -> retry ()
                      | `Dead -> fallback ()
                      | `Go -> (
                          match f seg with
                          | v ->
                              if F.generation seg = g1 then Some v
                              else retry ()
                          | exception F.Torn -> retry ())))
          in
          go shm_attempts
        end

(** Answer one query off the mapped segment, [None] = use the wire.
    Segments carry no probabilities, and hoist tracks maintained state
    server-side, so prob and hoist queries always use the wire. *)
let shm_query cl (q : P.query) : P.answer option =
  match q with
  | P.Q_equiv { u; a; b } ->
      Option.map
        (fun r -> P.A_equiv r)
        (with_seg cl u (fun seg -> F.get_equiv_acc seg a b))
  | P.Q_call { u; call; mem } ->
      Option.map
        (fun r -> P.A_call r)
        (with_seg cl u (fun seg -> F.get_call_acc seg ~call ~mem))
  | P.Q_prob _ | P.Q_hoist_target _ -> None

let shm_active cl u = cl.shm && Hashtbl.mem cl.shm_units u

let equiv_acc cl ~u a b =
  match with_seg cl u (fun seg -> F.get_equiv_acc seg a b) with
  | Some r -> r
  | None -> (
      match one cl (P.Q_equiv { u; a; b }) with
      | P.A_equiv r -> r
      | _ -> net_raise "E1105" "answer kind mismatch (equiv)")

let call_acc cl ~u ~call ~mem =
  match with_seg cl u (fun seg -> F.get_call_acc seg ~call ~mem) with
  | Some r -> r
  | None -> (
      match one cl (P.Q_call { u; call; mem }) with
      | P.A_call r -> r
      | _ -> net_raise "E1105" "answer kind mismatch (call)")

let equiv_prob cl ~u a b =
  match one cl (P.Q_prob { u; a; b }) with
  | P.A_prob r -> r
  | _ -> net_raise "E1105" "answer kind mismatch (equiv_prob)"

let hoist_target cl ~u item =
  match one cl (P.Q_hoist_target { u; item }) with
  | P.A_hoist_target r -> r
  | _ -> net_raise "E1105" "answer kind mismatch (hoist_target)"

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

(* A notify opens the unit's maintenance window: its segment still
   images the pre-edit index, so shm lookups fall back to the wire
   until the next [refresh] barrier closes the window. *)
let open_maint_window cl u = Hashtbl.replace cl.maint_open u ()

let expect_ack what = function
  | P.R_ack -> ()
  | _ -> net_raise "E1105" "unexpected response to %s" what

(* the two unit-returning notifications can defer their acks: send
   now, expect the R_ack later (the expectation FIFO keeps it
   correlated), but never let more than the window build up *)
let deferred_ack cl what req =
  if cl.pipeline > 1 then begin
    while in_flight cl >= cl.pipeline do
      ignore (collect_one cl)
    done;
    while in_flight cl > 0 && P.readable cl.rd do
      ignore (collect_one cl)
    done;
    send cl req;
    Queue.add (E_ack what) cl.expect
  end
  else expect_ack what (rpc cl req)

let notify_delete cl ~u item =
  open_maint_window cl u;
  deferred_ack cl "Notify_delete" (P.Notify_delete { u; item })

let notify_gen cl ~u ~like ~line =
  open_maint_window cl u;
  match rpc cl (P.Notify_gen { u; like; line }) with
  | P.R_gen id -> id
  | _ -> net_raise "E1105" "unexpected response to Notify_gen"

let notify_move cl ~u ~item ~target_rid =
  open_maint_window cl u;
  match rpc cl (P.Notify_move { u; item; target_rid }) with
  | P.R_moved moved -> moved
  | _ -> net_raise "E1105" "unexpected response to Notify_move"

let notify_unroll cl ~u ~rid ~factor =
  open_maint_window cl u;
  match rpc cl (P.Notify_unroll { u; rid; factor }) with
  | P.R_unrolled r -> r
  | _ -> net_raise "E1105" "unexpected response to Notify_unroll"

let refresh cl ~u =
  if shm_active cl u then
    (* the barrier must be synchronous when the unit is served off
       shm: only once the server has acked the Refresh is the segment
       rebuilt to the maintained entry's index, so a deferred ack would
       let an shm read race ahead of the rebuild and answer from the
       pre-edit image *)
    expect_ack "Refresh" (rpc cl (P.Refresh u))
  else deferred_ack cl "Refresh" (P.Refresh u);
  Hashtbl.remove cl.maint_open u

let flush cl = drain cl
let pending cl = in_flight cl
