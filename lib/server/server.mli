(** hlid server core: event-driven accept/read loop, worker pool,
    telemetry.

    One poller domain ({!run}) owns every socket: it accepts
    connections, reads ready bytes into per-connection reused buffers,
    parses/decodes frames in place and dispatches decoded requests to
    a {!Pool} of worker domains.  Each connection's queue is drained
    by at most one worker at a time, so requests are answered strictly
    in arrival order — the invariant pipelined clients correlate by —
    and session state needs no locking.  A session opens one validated
    HLI file into per-unit {!Hli_core.Maintain} transactions and
    answers {!Protocol.request} frames until [Close], EOF, a framing
    fault, or server shutdown.  Query/maintenance semantics mirror the
    in-process pipeline exactly (the remote differential suite checks
    Tables 1/2 byte-identity against it). *)

type config = {
  socket_path : string;
  jobs : int;
      (** worker-pool size; [jobs - 1] worker domains run request
          handlers.  Sessions no longer pin a worker for their
          lifetime, so this sizes for CPU parallelism, not for a
          connection-count cap.  [jobs = 1] is poller-inline mode:
          requests are handled synchronously on the poller domain —
          fastest on a single-core host, but one slow request then
          stalls every session. *)
  max_frame : int;  (** request payload size bound, bytes *)
  idle_timeout : float;
      (** poller wakeup cap in seconds — bounds shutdown latency *)
  request_timeout : float;
      (** per-frame progress bound; expiry answers E1109 *)
  shm_dir : string option;
      (** when set, the shared-memory fast path is on: one HLIX
          segment per opened unit is published under
          [shm_dir]/sess-<id>/, advertised in the Hello response, and
          rebuilt under the seqlock protocol at every [Refresh]
          barrier (DESIGN.md §8) *)
  store_cap : int;
      (** byte bound on the cross-session content-addressed entry
          store backing delta uploads; oldest-inserted entries are
          evicted past it (a miss only costs a client a re-upload) *)
}

val default_config : socket_path:string -> config
(** [jobs = max 8 (Pool.default_jobs ())],
    [max_frame = Protocol.default_max_frame], 0.2s idle poll, 30s
    request timeout, no shm dir, 256 MiB entry store. *)

type t

val create : config -> t
(** Bind and listen on [socket_path] (removing a stale socket file
    first).  Raises a phase-[Net] E1112 {!Diagnostics.Diagnostic} if
    the socket cannot be set up. *)

val run : t -> unit
(** Event loop (poller).  Returns only after {!initiate_shutdown}:
    every connection gets its queued answers, then an E1110 error
    frame, then EOF; stragglers are force-closed after a grace period,
    the worker pool is shut down and the socket file removed. *)

val initiate_shutdown : t -> unit
(** Flip the stop flag, close the listening socket and wake the
    poller through its self-pipe.  Idempotent and async-signal-safe
    enough for a [Sys.Signal_handle]. *)

val stats_json : t -> string
(** Server telemetry as a JSON object: session/frame/batch counters,
    per-query-kind counts, maintenance ops, rejected and timed-out
    frames, p50/p99 service latency (ns), capped per-session
    summaries.  Embedded as the ["server"] field of an
    hli-telemetry-v10 dump, and answered to a [Stats] frame. *)

val socket_path : t -> string
