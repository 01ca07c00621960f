(** hlid server core: event-driven accept/read loop, worker pool,
    telemetry.

    One poller (the domain that calls {!run}) owns every socket: it
    accepts connections, pulls ready bytes into per-connection reused
    buffers, parses and decodes frames {e in place}
    ({!Protocol.parse_frame}), and hands decoded requests to a
    fixed-size {!Pool} of worker domains.  Each connection carries a
    work queue drained by {e at most one} worker at a time, so

    - requests on one connection are handled strictly in arrival
      order and answered in that order (the invariant pipelined
      clients correlate replies by);
    - a connection's session state (one {!Hli_core.Maintain} session
      per unit) is only ever touched by the worker currently holding
      its queue — no locking around HLI state;
    - a slow or heavily pipelined connection occupies one worker,
      never the poller: other connections keep being read and served.

    Only the telemetry record and the connection table are shared
    (mutex-protected).  The semantics are the in-process pipeline's,
    because the session is the same {!Hli_core.Maintain.t}: queries
    answer from [Maintain.queried], maintenance ops edit the entry, and
    a {!Protocol.Refresh} is [Maintain.barrier] — the end-of-pass
    barrier the local driver calls.

    Shutdown is graceful: {!initiate_shutdown} flips a flag, closes
    the listening socket and wakes the poller through a self-pipe; the
    poller queues a shutdown notice behind each connection's in-flight
    work, so every client gets its pending answers, then an E1110
    error frame, then EOF.  {!run} bounds the drain and force-closes
    stragglers. *)

module P = Protocol
module S = Hli_core.Serialize
module T = Hli_core.Tables
module Q = Hli_core.Query
module M = Hli_core.Maintain

type config = {
  socket_path : string;
  jobs : int;
      (** worker-pool size; [jobs - 1] worker domains execute request
          handlers (sessions no longer pin a worker for their
          lifetime, so this sizes for CPU, not connection count) *)
  max_frame : int;
  idle_timeout : float;  (** poller wakeup cap (shutdown/deadline latency) *)
  request_timeout : float;  (** mid-frame progress bound *)
  shm_dir : string option;
      (** when set, publish one HLIX segment per opened unit under
          [shm_dir]/sess-<id>/ so co-located clients can answer
          read-only queries straight off an mmap (DESIGN.md §8) *)
  store_cap : int;
      (** byte bound on the cross-session entry store (delta uploads);
          oldest-inserted entries are evicted past it *)
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = max 8 (Pool.default_jobs ());
    max_frame = P.default_max_frame;
    idle_timeout = 0.2;
    request_timeout = P.default_timeout;
    shm_dir = None;
    store_cap = 256 * 1024 * 1024;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry (hli-telemetry-v9 "server" object)                        *)
(* ------------------------------------------------------------------ *)

let lat_cap = 8192
let per_session_cap = 32

type stats = {
  mutable st_sessions : int;
  mutable st_active : int;
  mutable st_frames : int;
  mutable st_batches : int;
  mutable st_queries : int;
  mutable st_batch_max : int;
  mutable st_q_equiv : int;
  mutable st_q_call : int;
  mutable st_q_hoist : int;
  mutable st_q_prob : int;
  mutable st_maintenance : int;
  mutable st_rejected : int;
  mutable st_timeouts : int;
  mutable st_shm_publishes : int;
  mutable st_shm_rebuilds : int;
  mutable st_shm_stale_swept : int;
      (** orphaned [*.tmp.*] publish temporaries removed (a crash
          between openfile and rename leaves one behind) *)
  mutable st_delta_opens : int;
  mutable st_delta_reused : int;  (** entries served from the store *)
  mutable st_delta_filled : int;  (** entries shipped by Delta_fill *)
  mutable st_refresh_skips : int;  (** Refresh barriers on clean units *)
  st_lat : float array;  (** service latencies, seconds; ring buffer *)
  mutable st_lat_n : int;  (** total recorded (may exceed the cap) *)
  mutable st_per_session : (int * int * int) list;
      (** (session id, frames, queries), newest first, capped *)
}

let fresh_stats () =
  {
    st_sessions = 0;
    st_active = 0;
    st_frames = 0;
    st_batches = 0;
    st_queries = 0;
    st_batch_max = 0;
    st_q_equiv = 0;
    st_q_call = 0;
    st_q_hoist = 0;
    st_q_prob = 0;
    st_maintenance = 0;
    st_rejected = 0;
    st_timeouts = 0;
    st_shm_publishes = 0;
    st_shm_rebuilds = 0;
    st_shm_stale_swept = 0;
    st_delta_opens = 0;
    st_delta_reused = 0;
    st_delta_filled = 0;
    st_refresh_skips = 0;
    st_lat = Array.make lat_cap 0.0;
    st_lat_n = 0;
    st_per_session = [];
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type unit_state = {
  us_mt : M.t;
  us_hash : string;  (** 16-byte digest of the source HLI container *)
  mutable us_pub : Shm.pub option;  (** published HLIX segment, if any *)
}

(* Work items flow poller -> per-connection queue -> one worker.  The
   queue preserves arrival order; [W_fault]/[W_shutdown]/[W_close]
   always terminate the connection after any queued requests. *)
type work =
  | W_req of P.request
  | W_fault of S.corruption  (** framing fault: answer its code, close *)
  | W_shutdown  (** graceful drain: answer E1110, close *)
  | W_close  (** peer vanished: close silently *)

(* Alive: the poller reads it.  Draining: no more reads; queued work
   (ending in a terminating item) is still being answered.  Dead: the
   worker is done; the poller reaps fd + bookkeeping. *)
type conn_state = Alive | Draining | Dead

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_buf : Bytes.t;  (** inbound scratch, grow-once, reused *)
  mutable c_ofs : int;  (** parse offset *)
  mutable c_len : int;  (** end of valid bytes *)
  mutable c_frame_since : float;
      (** when the first byte of the current partial frame arrived;
          0.0 = no partial frame pending *)
  c_units : (string, unit_state) Hashtbl.t;  (** worker-only *)
  mutable c_delta : ((string * string) array * int list) option;
      (** pending [Open_delta] (the (name, hash) refs and the missing
          positions an [R_delta_need] listed), awaiting its
          [Delta_fill]; cleared by any other request (the client
          abandoned the delta — e.g. resynced with a full upload).
          Worker-only. *)
  c_lock : Mutex.t;  (** guards c_work / c_scheduled / c_state *)
  c_work : work Queue.t;
  mutable c_scheduled : bool;  (** a worker owns the queue right now *)
  mutable c_state : conn_state;
  mutable c_frames : int;  (** worker-only counters, read at reap *)
  mutable c_queries : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  pool : Pool.t;
  active : int Atomic.t;  (** un-reaped connections *)
  mutex : Mutex.t;  (** guards [st], [conns] and the entry store *)
  st : stats;
  mutable conns : conn list;
  (* Cross-session content-addressed entry store backing delta
     uploads: entry payload keyed by its 16-byte content hash.  Every
     successful open (full or delta) feeds it, so a session re-opening
     an edited program only ships the entries whose hashes the store
     has never seen.  Bounded: oldest-inserted entries are evicted
     once [entry_store_cap] bytes accumulate (a miss only costs the
     client a re-upload). *)
  store : (string, string) Hashtbl.t;
  store_q : string Queue.t;  (** insertion order, for eviction *)
  mutable store_bytes : int;
  wake_r : Unix.file_descr;  (** self-pipe: workers/signals wake the poller *)
  wake_w : Unix.file_descr;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let wake t =
  (* best-effort, async-signal-safe enough: a full pipe already means
     a wakeup is pending *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* the table and queue move together under [t.mutex]: a hash is in the
   table iff it appears exactly once in the queue *)
let store_put t hash payload =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.store hash) then begin
    Hashtbl.replace t.store hash payload;
    Queue.add hash t.store_q;
    t.store_bytes <- t.store_bytes + String.length payload;
    while t.store_bytes > t.cfg.store_cap && not (Queue.is_empty t.store_q) do
      let h = Queue.pop t.store_q in
      match Hashtbl.find_opt t.store h with
      | Some p ->
          Hashtbl.remove t.store h;
          t.store_bytes <- t.store_bytes - String.length p
      | None -> ()
    done
  end

let store_get t hash = locked t @@ fun () -> Hashtbl.find_opt t.store hash

let record_latency t dt =
  t.st.st_lat.(t.st.st_lat_n mod lat_cap) <- dt;
  t.st.st_lat_n <- t.st.st_lat_n + 1

let percentile_ns sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let i = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
    int_of_float (sorted.(max 0 i) *. 1e9)

(** The server-side telemetry object embedded as the ["server"] field
    of an hli-telemetry-v9 dump (and answered to a [Stats] frame). *)
let stats_json t =
  locked t @@ fun () ->
  let s = t.st in
  let sorted = Array.sub s.st_lat 0 (min s.st_lat_n lat_cap) in
  Array.sort compare sorted;
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"sessions\":%d,\"active\":%d,\"frames\":%d,\"rejected_frames\":%d,\
        \"timed_out_frames\":%d,\"batches\":%d,\"batch_max\":%d,\
        \"maintenance_ops\":%d,\"queries\":{\"total\":%d,\"equiv_acc\":%d,\
        \"call_acc\":%d,\"hoist_target\":%d,\"equiv_prob\":%d},\"latency_ns\":{\"samples\":%d,\"p50\":%d,\
        \"p99\":%d},\"shm\":{\"publishes\":%d,\"rebuilds\":%d,\
        \"stale_swept\":%d},\"delta\":{\"opens\":%d,\"entries_reused\":%d,\
        \"entries_filled\":%d},\"store\":{\"bytes\":%d,\"entries\":%d},\
        \"refresh_skips\":%d,\
        \"per_session\":["
       s.st_sessions s.st_active s.st_frames s.st_rejected s.st_timeouts
       s.st_batches s.st_batch_max s.st_maintenance s.st_queries s.st_q_equiv
       s.st_q_call s.st_q_hoist s.st_q_prob s.st_lat_n
       (percentile_ns sorted 0.50)
       (percentile_ns sorted 0.99)
       s.st_shm_publishes s.st_shm_rebuilds s.st_shm_stale_swept
       s.st_delta_opens s.st_delta_reused s.st_delta_filled t.store_bytes
       (Hashtbl.length t.store) s.st_refresh_skips);
  List.iteri
    (fun i (id, frames, queries) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"session\":%d,\"frames\":%d,\"queries\":%d}" id
           frames queries))
    (List.rev s.st_per_session);
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Request handling (worker side)                                      *)
(* ------------------------------------------------------------------ *)

let q_unit = function
  | P.Q_equiv { u; _ }
  | P.Q_call { u; _ }
  | P.Q_prob { u; _ }
  | P.Q_hoist_target { u; _ } ->
      u

exception Reply_error of string * string  (* code, message *)

let reply_error code fmt = Fmt.kstr (fun m -> raise (Reply_error (code, m))) fmt

let find_unit units u =
  if Hashtbl.length units = 0 then
    reply_error "E1106" "no HLI opened on this session";
  match Hashtbl.find_opt units u with
  | Some us -> us
  | None -> reply_error "E1107" "unknown unit %S" u

let answer_query_in us q : P.answer =
  let idx = M.queried us.us_mt in
  match q with
  | P.Q_equiv { a; b; _ } -> P.A_equiv (Q.get_equiv_acc idx a b)
  | P.Q_call { call; mem; _ } -> P.A_call (Q.get_call_acc idx ~call ~mem)
  | P.Q_prob { a; b; _ } -> P.A_prob (Q.get_equiv_prob idx a b)
  | P.Q_hoist_target { item; _ } ->
      P.A_hoist_target (M.hoist_target us.us_mt item)

(** The per-session directory where this connection's HLIX segments
    live; advertised to the client in the Hello response. *)
let session_shm_dir t (c : conn) =
  Option.map
    (fun d -> Filename.concat d (Printf.sprintf "sess-%d" c.c_id))
    t.cfg.shm_dir

(* Remove orphaned publish temporaries from a session directory and
   account for them.  Crash-orphaned [*.tmp.*] files (a publisher
   SIGKILLed between openfile and rename) otherwise sit in
   [shm_dir]/sess-<id>/ forever: nothing advertises them, and they
   block the rmdir at reap. *)
let sweep_session_dir t d =
  let n = Shm.sweep_stale d in
  if n > 0 then
    locked t (fun () ->
        t.st.st_shm_stale_swept <- t.st.st_shm_stale_swept + n)

(* Publish one unit's HLIX segment, or skip on any filesystem trouble:
   the fast path is an optimization — the wire path stays
   authoritative, so shm failure must never fail the open. *)
let try_publish t dir name ~hash idx =
  match Shm.publish ~dir ~name:(Digest.to_hex (Digest.string name)) ~hash idx with
  | pub ->
      locked t (fun () -> t.st.st_shm_publishes <- t.st.st_shm_publishes + 1);
      Some pub
  | exception _ -> None

let open_file t (c : conn) ~hash (f : T.hli_file) : P.response =
  let units = c.c_units in
  if Hashtbl.length units > 0 then
    reply_error "E1106" "session already has an HLI open";
  let dir =
    match session_shm_dir t c with
    | Some d ->
        (try
           if not (Sys.file_exists d) then Unix.mkdir d 0o755
           else sweep_session_dir t d;
           Some d
         with Unix.Unix_error _ | Sys_error _ -> None)
    | None -> None
  in
  let opened =
    List.map
      (fun (e : T.hli_entry) ->
        let idx = Q.build e in
        let pub =
          match dir with
          | Some d -> try_publish t d e.T.unit_name ~hash idx
          | None -> None
        in
        Hashtbl.replace units e.T.unit_name
          { us_mt = M.start ~index:idx e; us_hash = hash; us_pub = pub };
        (e.T.unit_name, Q.duplicate_items idx))
      f.T.entries
  in
  P.R_opened opened

let bump_query_kind st = function
  | P.Q_equiv _ -> st.st_q_equiv <- st.st_q_equiv + 1
  | P.Q_call _ -> st.st_q_call <- st.st_q_call + 1
  | P.Q_prob _ -> st.st_q_prob <- st.st_q_prob + 1
  | P.Q_hoist_target _ -> st.st_q_hoist <- st.st_q_hoist + 1

(* split + decode + validate + open a full container, and seed the
   entry store with its payloads so later sessions can delta-open
   against these entries *)
let open_container_bytes t (c : conn) bytes : P.response =
  match
    let payloads = S.payloads_of_container bytes in
    let f = { T.entries = List.map S.entry_of_bytes payloads } in
    Hli_core.Validate.validate f;
    (payloads, f)
  with
  | exception S.Corrupt cor ->
      P.R_error { e_code = cor.S.c_code; e_msg = S.corruption_to_string cor }
  | exception Diagnostics.Diagnostic d ->
      P.R_error { e_code = d.Diagnostics.code; e_msg = d.Diagnostics.message }
  | payloads, f ->
      let resp = open_file t c ~hash:(Digest.string bytes) f in
      List.iter (fun p -> store_put t (S.entry_hash_of_payload p) p) payloads;
      resp

(* resolve every referenced entry out of the store; a reference
   evicted since the scan is a state error the client answers with a
   full-upload resync *)
let delta_payloads t (refs : (string * string) array) : string list =
  Array.to_list
    (Array.map
       (fun (name, h) ->
         match store_get t h with
         | Some p -> p
         | None ->
             reply_error "E1106" "entry %S evicted mid-open; resend in full"
               name)
       refs)

(* handle one request; returns (response, keep_connection_open) *)
let handle t (c : conn) (req : P.request) : P.response * bool =
  let units = c.c_units in
  (* any request other than the fill abandons a pending delta open
     (the client fell back to a full upload, or gave up) *)
  (match req with P.Delta_fill _ -> () | _ -> c.c_delta <- None);
  match req with
  | P.Hello { version } ->
      (* one version, no negotiation: a peer built from another tree
         is turned away before it can send a frame we might misread *)
      if version <> P.protocol_version then
        ( P.R_error
            {
              e_code = "E1111";
              e_msg =
                Printf.sprintf "protocol version mismatch: client %d, server %d"
                  version P.protocol_version;
            },
          false )
      else
        ( P.R_hello
            { version = P.protocol_version; shm_dir = session_shm_dir t c },
          true )
  | P.Open_hli bytes -> (open_container_bytes t c bytes, true)
  | P.Open_delta refs ->
      if Hashtbl.length units > 0 then
        reply_error "E1106" "session already has an HLI open";
      let arr = Array.of_list refs in
      let missing = ref [] in
      Array.iteri
        (fun i (_, h) -> if store_get t h = None then missing := i :: !missing)
        arr;
      let missing = List.rev !missing in
      locked t (fun () ->
          let st = t.st in
          st.st_delta_opens <- st.st_delta_opens + 1;
          st.st_delta_reused <-
            st.st_delta_reused + (Array.length arr - List.length missing));
      if missing = [] then
        (open_container_bytes t c (S.container_of_payloads (delta_payloads t arr)),
         true)
      else begin
        c.c_delta <- Some (arr, missing);
        (P.R_delta_need missing, true)
      end
  | P.Delta_fill payloads -> (
      match c.c_delta with
      | None -> reply_error "E1106" "Delta_fill without a pending Open_delta"
      | Some (arr, missing) ->
          c.c_delta <- None;
          let n_miss = List.length missing
          and n_got = List.length payloads in
          if n_miss <> n_got then
            reply_error "E1106"
              "Delta_fill carries %d payloads for %d missing entries" n_got
              n_miss;
          List.iter2
            (fun i p ->
              let name, claimed = arr.(i) in
              if S.entry_hash_of_payload p <> claimed then
                reply_error "E1105"
                  "entry %S: payload hash differs from its Open_delta \
                   reference"
                  name;
              store_put t claimed p)
            missing payloads;
          locked t (fun () ->
              t.st.st_delta_filled <- t.st.st_delta_filled + n_got);
          ( open_container_bytes t c
              (S.container_of_payloads (delta_payloads t arr)),
            true ))
  | P.Batch qs ->
      (* a batch almost always stays on one unit, and the decoder
         interns repeated names, so the memo usually hits on the
         pointer compare before ever touching the hashtable *)
      let memo_u = ref "" and memo_us = ref None in
      let answers =
        List.map
          (fun q ->
            let u = q_unit q in
            let us =
              match !memo_us with
              | Some us when !memo_u == u || String.equal !memo_u u -> us
              | _ ->
                  let us = find_unit units u in
                  memo_u := u;
                  memo_us := Some us;
                  us
            in
            answer_query_in us q)
          qs
      in
      locked t (fun () ->
          let st = t.st in
          st.st_batches <- st.st_batches + 1;
          let n = List.length qs in
          st.st_queries <- st.st_queries + n;
          if n > st.st_batch_max then st.st_batch_max <- n;
          List.iter (bump_query_kind st) qs);
      (P.R_results answers, true)
  | P.Notify_delete { u; item } ->
      let us = find_unit units u in
      M.delete_item us.us_mt item;
      locked t (fun () -> t.st.st_maintenance <- t.st.st_maintenance + 1);
      (P.R_ack, true)
  | P.Notify_gen { u; like; line } ->
      let us = find_unit units u in
      let id = M.gen_item us.us_mt ~like ~line in
      locked t (fun () -> t.st.st_maintenance <- t.st.st_maintenance + 1);
      (P.R_gen id, true)
  | P.Notify_move { u; item; target_rid } ->
      let us = find_unit units u in
      let moved = M.move_item_outward us.us_mt ~item ~target_rid in
      locked t (fun () -> t.st.st_maintenance <- t.st.st_maintenance + 1);
      (P.R_moved moved, true)
  | P.Notify_unroll { u; rid; factor } -> (
      let us = find_unit units u in
      locked t (fun () -> t.st.st_maintenance <- t.st.st_maintenance + 1);
      match M.unroll us.us_mt ~rid ~factor with
      | r -> (P.R_unrolled r, true)
      | exception Diagnostics.Diagnostic d ->
          ( P.R_error
              { e_code = d.Diagnostics.code; e_msg = d.Diagnostics.message },
            true ))
  | P.Refresh u ->
      let us = find_unit units u in
      if not (M.barrier us.us_mt) then
        (* nothing edited since the last barrier: the index stays, and
           the published shm segment is left byte-identical (its
           generation word never moves, which co-located readers rely
           on to skip revalidation) *)
        locked t (fun () -> t.st.st_refresh_skips <- t.st.st_refresh_skips + 1)
      else begin
        match us.us_pub with
        | Some pub -> (
            (* seqlock in-place rebuild; on any failure the segment is
               withdrawn and the client's generation check turns its
               next lookup into a wire fallback *)
            try
              Shm.rebuild pub ~hash:us.us_hash (M.queried us.us_mt);
              locked t (fun () ->
                  t.st.st_shm_rebuilds <- t.st.st_shm_rebuilds + 1)
            with _ ->
              Shm.unpublish pub;
              us.us_pub <- None)
        | None -> ()
      end;
      (P.R_ack, true)
  | P.Line_table u ->
      let us = find_unit units u in
      (P.R_line_table us.us_mt.M.entry.T.line_table, true)
  | P.Stats -> (P.R_stats (stats_json t), true)
  | P.Shm_list ->
      let segs =
        Hashtbl.fold
          (fun name us acc ->
            match us.us_pub with
            | Some pub -> (name, pub.Shm.p_path) :: acc
            | None -> acc)
          units []
      in
      (P.R_shm_list segs, true)
  | P.Close -> (P.R_closing, false)

(* ------------------------------------------------------------------ *)
(* Worker: drain one connection's queue                                *)
(* ------------------------------------------------------------------ *)

(* Handle one work item; responses are {e encoded} into [out], not
   written — the drain loop flushes the whole burst in one write, so a
   pipelined train of N requests costs one syscall, not N.  Returns
   true to keep the connection, false to terminate it. *)
let handle_work t c out = function
  | W_req req ->
      let t0 = P.now () in
      let resp, keep =
        try handle t c req with
        | Reply_error (e_code, e_msg) -> (P.R_error { e_code; e_msg }, true)
        | Diagnostics.Diagnostic d ->
            ( P.R_error
                { e_code = d.Diagnostics.code; e_msg = d.Diagnostics.message },
              true )
      in
      P.encode_response_into out resp;
      c.c_frames <- c.c_frames + 1;
      (match req with
      | P.Batch qs -> c.c_queries <- c.c_queries + List.length qs
      | _ -> ());
      locked t (fun () ->
          t.st.st_frames <- t.st.st_frames + 1;
          record_latency t (P.now () -. t0));
      keep
  | W_fault cor ->
      (* a framing fault is unrecoverable: answer with its precise
         E-code, then drop the connection *)
      locked t (fun () ->
          if cor.S.c_code = "E1109" then t.st.st_timeouts <- t.st.st_timeouts + 1
          else t.st.st_rejected <- t.st.st_rejected + 1);
      P.encode_response_into out
        (P.R_error
           { e_code = cor.S.c_code; e_msg = S.corruption_to_string cor });
      false
  | W_shutdown ->
      (* graceful shutdown: in-flight requests were answered above;
         tell the client we are going away rather than silently
         hanging up *)
      P.encode_response_into out
        (P.R_error { e_code = "E1110"; e_msg = "server shutting down" });
      false
  | W_close -> false

(* cap on buffered responses before an intermediate flush: bounds
   worker memory against a huge pipelined train of large answers *)
let flush_watermark = 256 * 1024

let process t c =
  let out = Buffer.create 1024 in
  (* the flush is bounded: a client that stops reading its responses
     costs one E1109 after request_timeout, not a wedged worker *)
  let flush () =
    if Buffer.length out > 0 then begin
      let s = Buffer.contents out in
      Buffer.clear out;
      P.write_all
        ~deadline:(P.now () +. t.cfg.request_timeout)
        c.c_fd s
    end
  in
  let die () =
    (* best-effort parting frames (fault codes, shutdown notice) *)
    (try flush () with _ -> ());
    Mutex.lock c.c_lock;
    Queue.clear c.c_work;
    c.c_scheduled <- false;
    c.c_state <- Dead;
    Mutex.unlock c.c_lock;
    wake t
  in
  let rec drain () =
    let item =
      Mutex.lock c.c_lock;
      let i = Queue.take_opt c.c_work in
      Mutex.unlock c.c_lock;
      i
    in
    match item with
    | Some w -> (
        match handle_work t c out w with
        | true ->
            if Buffer.length out > flush_watermark then flush ();
            drain ()
        | false -> die ()
        | exception _ -> die ())
    | None -> (
        (* queue looks empty: flush the burst {e before} releasing the
           scheduled flag, so another worker can't interleave writes;
           then re-check — new work may have arrived while writing *)
        match flush () with
        | () ->
            Mutex.lock c.c_lock;
            let empty = Queue.is_empty c.c_work in
            if empty then c.c_scheduled <- false;
            Mutex.unlock c.c_lock;
            if not empty then drain ()
        | exception _ -> die ())
  in
  drain ()

(* queue one work item without waking a worker; [terminal] also stops
   further reads.  Callers follow up with {!kick} once the whole burst
   is queued — submitting per frame would make a worker (or, in
   poller-inline mode, the poller itself) answer frame by frame, and
   the response coalescing in {!process} would never see a burst. *)
let push t c ?(terminal = false) w =
  ignore t;
  Mutex.lock c.c_lock;
  if c.c_state <> Dead then begin
    Queue.add w c.c_work;
    if terminal && c.c_state = Alive then c.c_state <- Draining
  end;
  Mutex.unlock c.c_lock

(* make sure exactly one worker owns the queue *)
let kick t c =
  Mutex.lock c.c_lock;
  let submit =
    c.c_state <> Dead && (not c.c_scheduled) && not (Queue.is_empty c.c_work)
  in
  if submit then c.c_scheduled <- true;
  Mutex.unlock c.c_lock;
  if submit then Pool.submit t.pool (fun () -> process t c)

let enqueue t c ?terminal w =
  push t c ?terminal w;
  kick t c

(* ------------------------------------------------------------------ *)
(* Poller: accept, read, parse, dispatch                               *)
(* ------------------------------------------------------------------ *)

let conn_state c =
  Mutex.lock c.c_lock;
  let s = c.c_state in
  Mutex.unlock c.c_lock;
  s

(* grow-once scratch management: compact before growing, grow
   geometrically; [parse_frame]'s eager E1104 bounds any single frame,
   so the buffer never exceeds ~2x max_frame *)
let conn_make_room c =
  if c.c_len = Bytes.length c.c_buf then
    if c.c_ofs > 0 then begin
      Bytes.blit c.c_buf c.c_ofs c.c_buf 0 (c.c_len - c.c_ofs);
      c.c_len <- c.c_len - c.c_ofs;
      c.c_ofs <- 0
    end
    else begin
      let nb = Bytes.create (2 * Bytes.length c.c_buf) in
      Bytes.blit c.c_buf 0 nb 0 c.c_len;
      c.c_buf <- nb
    end

(* parse every complete frame out of the buffer; decoded requests go
   to the connection's queue in arrival order *)
let parse_conn t c =
  let fault cor = push t c ~terminal:true (W_fault cor) in
  let rec go () =
    match
      P.parse_frame ~max_frame:t.cfg.max_frame ~kind:"request"
        ~known:P.is_request_tag c.c_buf ~ofs:c.c_ofs
        ~len:(c.c_len - c.c_ofs)
    with
    | exception S.Corrupt cor -> fault cor
    | None ->
        if c.c_ofs = c.c_len then begin
          (* everything consumed: rewind so the next read starts at 0 *)
          c.c_ofs <- 0;
          c.c_len <- 0;
          c.c_frame_since <- 0.0
        end
        else if c.c_frame_since = 0.0 then
          c.c_frame_since <- P.now ()
    | Some fi -> (
        match P.decode_request_at c.c_buf fi with
        | exception S.Corrupt cor -> fault cor
        | req ->
            c.c_ofs <- fi.P.f_end;
            c.c_frame_since <- 0.0;
            push t c (W_req req);
            go ())
  in
  go ();
  (* one kick for the whole burst: the worker drains every frame this
     read produced and answers them with one coalesced write *)
  kick t c

let on_gone t c =
  (* EOF or a dead socket: close silently once queued work is done *)
  if conn_state c = Alive then enqueue t c ~terminal:true W_close

let read_conn t c =
  conn_make_room c;
  match Unix.read c.c_fd c.c_buf c.c_len (Bytes.length c.c_buf - c.c_len) with
  | 0 -> on_gone t c
  | k ->
      c.c_len <- c.c_len + k;
      parse_conn t c
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error _ -> on_gone t c

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let net_error code fmt =
  Fmt.kstr
    (fun m ->
      raise
        (Diagnostics.Diagnostic
           (Diagnostics.make ~code ~phase:Diagnostics.Net
              ~severity:Diagnostics.Error m)))
    fmt

(** Bind and listen on [cfg.socket_path] (removing a stale socket
    file); raises a phase-[Net] E1112 diagnostic on failure. *)
let create (cfg : config) : t =
  (* a dying client must surface as a write error, not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path
   with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     net_error "E1112" "cannot listen on %s: %s" cfg.socket_path
       (Unix.error_message e));
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (match cfg.shm_dir with
  | Some d -> (
      try if not (Sys.file_exists d) then Unix.mkdir d 0o755
      with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  let t =
    {
    (* jobs = 1 is poller-inline mode: Pool.submit with no worker
       domains runs the job synchronously, so request handling happens
       on the poller domain itself.  On a single-core host that saves
       the cross-domain handoff per burst; the cost is that one slow
       request stalls every session, so it is opt-in, never the
       default. *)
      cfg = { cfg with jobs = max 1 cfg.jobs };
      listen_fd = fd;
      stop = Atomic.make false;
      pool = Pool.create ~jobs:(max 1 cfg.jobs);
      active = Atomic.make 0;
      mutex = Mutex.create ();
      st = fresh_stats ();
      conns = [];
      store = Hashtbl.create 256;
      store_q = Queue.create ();
      store_bytes = 0;
      wake_r;
      wake_w;
    }
  in
  (* a previous daemon SIGKILLed mid-publish leaves sess-<id>/ dirs
     with orphaned *.tmp.* files under a shared shm root; sweep them
     now so the space is reclaimed and the dirs can be reused *)
  (match cfg.shm_dir with
  | Some root -> (
      match Sys.readdir root with
      | exception Sys_error _ -> ()
      | names ->
          Array.iter
            (fun name ->
              if String.length name > 5 && String.sub name 0 5 = "sess-" then begin
                let d = Filename.concat root name in
                match Sys.is_directory d with
                | true ->
                    sweep_session_dir t d;
                    (try Unix.rmdir d with Unix.Unix_error _ -> ())
                | false | (exception Sys_error _) -> ()
              end)
            names)
  | None -> ());
  t

(** Flip the stop flag, close the listening socket and wake the
    poller.  Callable from a signal handler; {!run} then drains and
    returns. *)
let initiate_shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    wake t
  end

let conn_counter = ref 0

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        incr conn_counter;
        let c =
          {
            c_id = !conn_counter;
            c_fd = fd;
            c_buf = Bytes.create (64 * 1024);
            c_ofs = 0;
            c_len = 0;
            c_frame_since = 0.0;
            c_units = Hashtbl.create 8;
            c_delta = None;
            c_lock = Mutex.create ();
            c_work = Queue.create ();
            c_scheduled = false;
            c_state = Alive;
            c_frames = 0;
            c_queries = 0;
          }
        in
        Atomic.incr t.active;
        locked t (fun () ->
            t.st.st_sessions <- t.st.st_sessions + 1;
            t.st.st_active <- t.st.st_active + 1;
            t.conns <- c :: t.conns);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> () (* closed by initiate_shutdown *)
  in
  go ()

let drain_wake_pipe t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* reap Dead connections: close the fd (only the poller ever does)
   and fold the worker-side counters into telemetry *)
let reap t =
  let dead, live =
    locked t (fun () ->
        let dead, live = List.partition (fun c -> conn_state c = Dead) t.conns in
        t.conns <- live;
        (dead, live))
  in
  List.iter
    (fun c ->
      (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
      (* the worker is done with a Dead conn, so its units are safe to
         touch here: withdraw the session's segments and directory *)
      Hashtbl.iter
        (fun _ us ->
          match us.us_pub with
          | Some pub ->
              Shm.unpublish pub;
              us.us_pub <- None
          | None -> ())
        c.c_units;
      (match session_shm_dir t c with
      | Some d ->
          sweep_session_dir t d;
          (try Unix.rmdir d with Unix.Unix_error _ -> ())
      | None -> ());
      Atomic.decr t.active;
      locked t (fun () ->
          t.st.st_active <- t.st.st_active - 1;
          t.st.st_per_session <-
            (let l = (c.c_id, c.c_frames, c.c_queries) :: t.st.st_per_session in
             if List.length l > per_session_cap then
               List.filteri (fun i _ -> i < per_session_cap) l
             else l)))
    dead;
  live

(* expire connections stuck mid-frame past the request timeout *)
let check_frame_deadlines t live =
  let now = P.now () in
  List.iter
    (fun c ->
      if
        conn_state c = Alive
        && c.c_frame_since > 0.0
        && now -. c.c_frame_since > t.cfg.request_timeout
      then
        enqueue t c ~terminal:true
          (W_fault
             {
               S.c_code = "E1109";
               c_at = -1;
               c_msg =
                 Printf.sprintf "timed out mid-frame after %.1fs"
                   t.cfg.request_timeout;
             }))
    live

(* the poller sleeps until the next fd event, but never past the idle
   interval or the earliest mid-frame deadline *)
let select_timeout t live =
  let now = P.now () in
  List.fold_left
    (fun acc c ->
      if c.c_frame_since > 0.0 then
        min acc (max 0.0 (c.c_frame_since +. t.cfg.request_timeout -. now))
      else acc)
    t.cfg.idle_timeout live

let sleepf s = try Unix.sleepf s with Unix.Unix_error _ -> ()

(** Event loop; returns once {!initiate_shutdown} has been called and
    every connection has drained (bounded: stragglers are force-closed
    after a grace period). *)
let run t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let live = reap t in
      check_frame_deadlines t live;
      let readable =
        List.filter_map
          (fun c -> if conn_state c = Alive then Some c.c_fd else None)
          live
      in
      (match
         Unix.select
           (t.wake_r :: t.listen_fd :: readable)
           [] [] (select_timeout t live)
       with
      | ready, _, _ ->
          if List.memq t.wake_r ready then drain_wake_pipe t;
          if List.memq t.listen_fd ready then accept_loop t;
          List.iter
            (fun c ->
              if List.memq c.c_fd ready && conn_state c = Alive then
                read_conn t c)
            live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* the listening fd was closed under us: shutdown signal *)
          ());
      loop ()
    end
  in
  loop ();
  (* graceful drain: every connection gets its queued answers, then an
     E1110 notice, then EOF *)
  let live = reap t in
  List.iter (fun c -> enqueue t c ~terminal:true W_shutdown) live;
  let deadline = P.now () +. (2.0 *. t.cfg.idle_timeout) +. 1.0 in
  while Atomic.get t.active > 0 && P.now () < deadline do
    ignore (reap t);
    sleepf 0.02
  done;
  if Atomic.get t.active > 0 then begin
    (* force stragglers out: a worker blocked writing to a client that
       stopped reading fails immediately once the socket is shut down *)
    locked t (fun () ->
        List.iter
          (fun c ->
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.conns);
    let deadline = P.now () +. 2.0 in
    while Atomic.get t.active > 0 && P.now () < deadline do
      ignore (reap t);
      sleepf 0.02
    done
  end;
  ignore (reap t);
  Pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

let socket_path t = t.cfg.socket_path
