(** Blocking hlid client: one value is one server session.

    It carries the back-end session's three queries (equiv, call,
    hoist-target) and its maintenance calls, the functions
    [Harness.Remote] wraps into a [Backend.Hli_import.session].  Each
    query is one [Batch] frame, or in shm mode an equiv or call lookup
    off the unit's mapped HLIX segment.  Nothing is memoized
    client-side: every answer is the server session's, read from the
    index as of the unit's last [refresh] barrier.

    With [~pipeline:n] (n > 1) the client keeps up to [n] frames in
    flight: {!query_batches} overlaps batches, and {!notify_delete}/
    {!refresh} defer their acks.  Correlation is positional — the
    server answers strictly in request order, the client keeps an
    expectation FIFO, and any reply that does not match the
    head-of-line expectation raises an out-of-sequence E1105.  With
    the default [pipeline = 1] the session is strict request/reply.

    Every failure raises {!Diagnostics.Diagnostic}: protocol faults
    carry their E11xx code under phase [Net]; server-relayed errors
    re-raise under the server's original code (a relayed E0701 behaves
    like the local bad-unroll-factor). *)

type t

val connect :
  ?timeout:float -> ?max_frame:int -> ?pipeline:int -> ?shm:bool -> string -> t
(** Connect to a hlid socket path and perform the Hello handshake.
    [pipeline] (default 1) is the max in-flight frame window.  With
    [~shm:true], the shared-memory fast path is enabled: the HLIX
    segments the server publishes for this session are mapped
    read-only and {!equiv_acc}/{!call_acc} answer straight off the
    mapping under the seqlock protocol, transparently falling back to
    the wire when the
    generation is odd or moved mid-read, the segment is missing or
    corrupt, or the unit has uncommitted maintenance (DESIGN.md §8).
    Raises E1112 if the socket is unreachable, E1111 if the server
    answers the Hello at any version other than
    {!Protocol.protocol_version}, [Invalid_argument] if
    [pipeline < 1]. *)

val close : t -> unit
(** Drain in-flight replies, best-effort [Close] round-trip, then
    closes the socket.  Never raises. *)

val flush : t -> unit
(** Collect every in-flight reply (deferred acks included).  Raises
    like the operation that deferred them would have. *)

val pending : t -> int
(** In-flight frames awaiting replies (0 unless pipelining). *)

val open_hli_bytes : t -> string -> (string * int list) list
(** Open an HLI container on the session, shipping as little as
    possible: entries are referenced by content hash ([Open_delta])
    and only the ones the server's cross-session store lacks are
    uploaded ([Delta_fill]).  A delta exchange the server answers
    cleanly but unsuccessfully is resynced with a full [Open_hli]
    upload over the same session — never a wrong answer, only a
    slower one; transport faults raise as usual.  Returns, per unit,
    its name and duplicate item ids. *)

val line_table : t -> string -> Hli_core.Tables.line_entry list
(** The named unit's line table (drives remote instruction mapping). *)

val server_stats : t -> string
(** Server telemetry JSON (see {!Server.stats_json}). *)

(** {2 Queries} *)

val query_batch : t -> Protocol.query list -> Protocol.answer list
(** One frame carrying N queries; answers are positional (servbench
    uses this directly). *)

val query_batches : t -> Protocol.query list list -> Protocol.answer list list
(** Pipelined fan-out: up to [pipeline] [Batch] frames in flight at
    once, answers correlated positionally.  Sends drain ready replies
    first, so the call cannot deadlock against a full socket buffer.
    Equivalent to mapping {!query_batch} but overlapping the wire
    round-trips. *)

val equiv_acc : t -> u:string -> int -> int -> Hli_core.Query.equiv_result

val call_acc :
  t -> u:string -> call:int -> mem:int -> Hli_core.Query.call_acc_result

val hoist_target : t -> u:string -> int -> int option
(** The LICM hoist decision, answered server-side by
    [Maintain.hoist_target]; always on the wire, since it reads the
    maintained entry. *)

(** {2 Shared-memory fast path} *)

val shm_query : t -> Protocol.query -> Protocol.answer option
(** Answer one query off the unit's mapped HLIX segment, [None] = not
    answerable off shm (shm off, no segment, seqlock retries
    exhausted, or an uncommitted maintenance window) — send it over
    the wire instead.  Hoist queries always return [None].
    Never returns a wrong answer: lookups are accepted only under an
    even, unchanged generation, and images are CRC/content-hash
    revalidated whenever the generation moves. *)

val shm_active : t -> string -> bool
(** [true] iff shm mode is on and the named unit has an advertised
    segment (mapped lazily on first lookup). *)

(** Process-wide shm counters (the telemetry ["shm"] object). *)
type shm_stats = {
  maps : int;  (** segment mappings established (remaps included) *)
  generation_retries : int;  (** lookups retried under the seqlock *)
  wire_fallbacks : int;  (** shm-eligible lookups answered on the wire *)
  segment_bytes : int;  (** bytes currently mapped across segments *)
}

val shm_stats : unit -> shm_stats

val shm_stats_json : unit -> string
(** The counters rendered as the canonical hli-telemetry-v10 ["shm"]
    JSON object. *)

(** {2 Maintenance notifications} — each opens the named unit's
    maintenance window, during which its shm lookups fall back to the
    wire. *)

val notify_delete : t -> u:string -> int -> unit
(** With [pipeline > 1] the ack is deferred: collected by the next
    reply-bearing call (or {!flush}/{!close}). *)

val notify_gen : t -> u:string -> like:int -> line:int -> int
val notify_move : t -> u:string -> item:int -> target_rid:int -> bool

val notify_unroll :
  t -> u:string -> rid:int -> factor:int -> Hli_core.Maintain.unroll_result

val refresh : t -> u:string -> unit
(** End-of-pass barrier ([Maintain.barrier] on the server's session):
    after an edit the server's queries move to the maintained entry's
    index and, in shm mode, the unit's HLIX segment is rebuilt under
    the seqlock.  Ack deferred like {!notify_delete} when pipelining —
    except when the unit is served off shm, where the barrier is
    synchronous (a deferred ack would let an shm read race the
    server's rebuild and answer from the pre-edit image).  Closes
    the unit's maintenance window. *)
