(** hlid wire protocol: length-framed, CRC-checked binary frames.

    Frame layout (DESIGN.md has the full byte-level spec):

    {v tag:u8 | len:varint | payload (len bytes) | CRC32(payload):u32le v}

    All decode failures raise {!Hli_core.Serialize.Corrupt} with a
    precise E11xx code: E1101 unknown tag, E1102 truncated frame,
    E1103 CRC mismatch, E1104 size bound exceeded, E1105 malformed
    payload, E1109 timeout, E1110 connection closed. *)

val protocol_version : int
(** The one wire version.  Every peer builds from this tree, so there
    is no negotiation: a [Hello] at any other version is answered
    with E1111. *)

val default_max_frame : int
(** Default payload size bound (16 MiB), enforced before allocation. *)

val default_timeout : float
(** Default per-frame progress timeout, seconds. *)

(** One query of a {!Batch}; [u] names the opened unit.  These are
    the back-end session's four queries ([Hli_import.session]). *)
type query =
  | Q_equiv of { u : string; a : int; b : int }
  | Q_call of { u : string; call : int; mem : int }
  | Q_prob of { u : string; a : int; b : int }
      (** confidence-weighted equiv: the engine's [get_equiv_prob] *)
  | Q_hoist_target of { u : string; item : int }

(** Positional answers of an {!R_results}, mirroring {!query}. *)
type answer =
  | A_equiv of Hli_core.Query.equiv_result
  | A_call of Hli_core.Query.call_acc_result
  | A_prob of (Hli_core.Query.equiv_result * int)
      (** result and per-mille confidence *)
  | A_hoist_target of int option

type request =
  | Hello of { version : int }
  | Open_hli of string  (** HLI container bytes, shipped inline *)
  | Batch of query list
  | Notify_delete of { u : string; item : int }
  | Notify_gen of { u : string; like : int; line : int }
  | Notify_move of { u : string; item : int; target_rid : int }
  | Notify_unroll of { u : string; rid : int; factor : int }
  | Refresh of string
      (** end-of-pass barrier, [Maintain.barrier] on the unit's
          session: after an edit, later queries read the maintained
          entry's index; with no edit since the last barrier it
          changes nothing *)
  | Line_table of string
  | Stats
  | Close
  | Shm_list
      (** enumerate the HLIX segments published for this session's
          opened units (shared-memory fast path; DESIGN.md §8) *)
  | Open_delta of (string * string) list
      (** open by reference: per entry, its unit name and the 16-byte
          content hash of its entry payload.  Known entries are reused
          from the server's cross-session store; missing ones are
          requested via [R_delta_need] and shipped with [Delta_fill] *)
  | Delta_fill of string list
      (** the entry payloads an [R_delta_need] asked for, in the listed
          order; only valid while its [Open_delta] is pending *)

type response =
  | R_hello of { version : int; shm_dir : string option }
      (** [shm_dir]: the per-session directory where the server
          publishes HLIX segments, when the shm fast path is enabled *)
  | R_opened of (string * int list) list
      (** per opened unit: name and duplicate item ids *)
  | R_results of answer list
  | R_ack
  | R_gen of int
  | R_moved of bool
  | R_unrolled of Hli_core.Maintain.unroll_result
  | R_line_table of Hli_core.Tables.line_entry list
  | R_stats of string  (** server telemetry as a JSON object *)
  | R_closing
  | R_shm_list of (string * string) list
      (** per published unit: name and HLIX segment path *)
  | R_delta_need of int list
      (** positions (into the [Open_delta] list) of the entries the
          server's store lacks *)
  | R_error of { e_code : string; e_msg : string }

(** {2 Pure frame codec} — used directly by the fuzz harness. *)

val request_to_string : request -> string
val response_to_string : response -> string

val encode_request_into : Buffer.t -> request -> unit
(** Append the framed request to the buffer without building the
    intermediate frame string — the hot path for pipelined sends. *)

val encode_response_into : Buffer.t -> response -> unit
(** Same, for coalesced response bursts. *)

val request_of_string : ?max_frame:int -> string -> request
(** Decode one complete request frame; raises
    {!Hli_core.Serialize.Corrupt} with an E11xx code on any fault. *)

val response_of_string : ?max_frame:int -> string -> response

val is_protocol_code : string -> bool
(** [true] on E11xx codes. *)

val is_request_tag : int -> bool
val is_response_tag : int -> bool

(** {2 Streaming zero-copy framing}

    The event-driven server and the pipelined client parse frames in
    place over a reused buffer: {!parse_frame} finds one frame's
    boundaries among the valid bytes (eagerly rejecting malformations
    decidable from a prefix), then {!decode_request_at}/
    {!decode_response_at} decode the CRC-checked payload without
    copying it out. *)

type frame_info = {
  f_tag : int;
  f_payload_ofs : int;  (** absolute offset of the payload in the buffer *)
  f_payload_len : int;
  f_end : int;  (** offset just past the CRC — where the next frame starts *)
}

val parse_frame :
  ?max_frame:int ->
  kind:string ->
  known:(int -> bool) ->
  Bytes.t ->
  ofs:int ->
  len:int ->
  frame_info option
(** [None] = incomplete, feed more bytes.  Raises E1101/E1103/E1104/
    E1105 as soon as the fault is decidable. *)

val decode_request_at : Bytes.t -> frame_info -> request
(** Decode a frame found by [parse_frame] with [known:is_request_tag];
    raises E1105 on a malformed payload. *)

val decode_response_at : Bytes.t -> frame_info -> response

(** {2 Socket I/O} *)

val now : unit -> float
(** The deadline clock: CLOCK_MONOTONIC, in seconds.  Every absolute
    [deadline] below is interpreted against this clock — compute them
    as [now () +. budget], never from [Unix.gettimeofday] (an NTP step
    would fire or starve the wait). *)

(** A buffered frame reader over one fd: bytes are pulled in bulk into
    a grow-once scratch buffer, frames decoded in place, and surplus
    bytes of a pipelined train pushed back for the next receive. *)
type reader

val reader : ?initial:int -> Unix.file_descr -> reader
(** Wrap [fd] ([initial] is the scratch-buffer size, default 64 KiB).
    All reads from the fd must go through the reader from then on. *)

val reader_buffered : reader -> int
(** Bytes received but not yet consumed (pushed-back surplus). *)

val readable : reader -> bool
(** [true] iff a receive can make progress without blocking: surplus
    bytes are buffered, or the fd is readable right now. *)

(** [Closed]: EOF before any byte of a frame. *)
type 'a recv = Got of 'a | Closed

val recv_request : ?max_frame:int -> ?timeout:float -> reader -> request recv
(** Blocking read of one request frame.  [timeout] bounds the wait
    for the frame and, once it has started, the rest of it (expiry
    raises E1109, recomputed — not restarted — across EINTR); EOF
    mid-frame raises E1102. *)

val recv_response : ?max_frame:int -> ?timeout:float -> reader -> response
(** Blocking read of one response frame.  EOF raises E1110; a quiet
    line past [timeout] raises E1109. *)

val write_all : ?deadline:float -> Unix.file_descr -> string -> unit
(** Write the whole string, surviving partial writes, EINTR and
    EAGAIN/0-byte writes on non-blocking fds (waits for writability,
    never busy-loops, never drops the tail).  [deadline] (absolute,
    {!now} clock) bounds the whole write — expiry raises E1109; a
    vanished peer raises E1110. *)

val send_request : ?deadline:float -> Unix.file_descr -> request -> unit
val send_response : ?deadline:float -> Unix.file_descr -> response -> unit
(** Both raise [Corrupt] E1110 when the peer is gone. *)

val diagnostic_of_fault :
  ?file:string -> Hli_core.Serialize.corruption -> Diagnostics.t
(** Render a protocol fault as a phase-[Net] diagnostic (exit code 7). *)
