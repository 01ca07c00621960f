(** hlid wire protocol: length-framed, CRC-checked request/response
    frames over a Unix-domain socket.

    Every frame is

    {v tag:u8 | len:varint | payload (len bytes) | CRC32(payload):u32le v}

    reusing the HLI container's primitives (bounded LEB128 varints,
    explicit option/bool tags, IEEE CRC32) from {!Hli_core.Serialize},
    so the wire format inherits the same hostile-input posture: every
    decode failure raises {!Hli_core.Serialize.Corrupt} with a precise
    E11xx code (see the table in [lib/driver/diagnostics.ml]) —

    - E1101 unknown frame tag        - E1102 truncated frame
    - E1103 frame CRC32 mismatch     - E1104 frame exceeds size bound
    - E1105 malformed frame payload  - E1106 protocol state violation
    - E1107 unknown unit name        - E1108 relayed server-side error
    - E1109 timeout                  - E1110 connection closed
    - E1111 protocol version mismatch
    - E1112 socket setup failure

    The exchange is one response frame per request frame, answered
    {e strictly in request order} — which is what makes pipelining
    sound: a client may send N request frames back-to-back and
    correlate the N replies by sequence position alone (DESIGN.md §7
    has the correlation rules).  A {!Batch} request carries N queries
    in one frame; {!R_results} answers them positionally.  DESIGN.md
    has the byte-level layout of every payload. *)

module S = Hli_core.Serialize
module T = Hli_core.Tables
module Q = Hli_core.Query

(* Every peer builds from this tree, so there is one version and no
   negotiation: a Hello at any other version is answered E1111.  Bump
   it whenever a frame's layout changes (v7: the four back-end query
   kinds only, probability queries ride in Batch, tags renumbered
   densely). *)
let protocol_version = 7

(** Bound on a frame's payload length, checked {e before} the payload
    is read or allocated. *)
let default_max_frame = 16 * 1024 * 1024

let default_timeout = 30.0

let err ?at code fmt = S.corrupt ?at ~code fmt

(* ------------------------------------------------------------------ *)
(* Frame types                                                         *)
(* ------------------------------------------------------------------ *)

type query =
  | Q_equiv of { u : string; a : int; b : int }
  | Q_call of { u : string; call : int; mem : int }
  | Q_prob of { u : string; a : int; b : int }
      (** confidence-weighted equiv: the engine's [get_equiv_prob] *)
  | Q_hoist_target of { u : string; item : int }
      (** LICM's hoist decision ([Maintain.hoist_target]): the parent
          region of the item's region in the {e maintained} entry,
          answered server-side where that entry lives *)

type answer =
  | A_equiv of Q.equiv_result
  | A_call of Q.call_acc_result
  | A_prob of (Q.equiv_result * int)  (** result, per-mille confidence *)
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
          content hash of its entry payload ({!S.entry_hash}).  Entries
          the server already holds (from any prior session) are reused;
          the rest are requested back via {!R_delta_need} and shipped
          with {!Delta_fill} *)
  | Delta_fill of string list
      (** the entry payloads an {!R_delta_need} asked for, in the
          listed order; only valid while its [Open_delta] is pending *)

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
  | R_line_table of T.line_entry list
  | R_stats of string  (** server telemetry as a JSON object *)
  | R_closing
  | R_shm_list of (string * string) list
      (** per published unit: name and HLIX segment path *)
  | R_delta_need of int list
      (** positions (into the [Open_delta] list) of the entries the
          server's store lacks; empty never occurs — a fully known
          delta open is answered with {!R_opened} directly *)
  | R_error of { e_code : string; e_msg : string }

(* ------------------------------------------------------------------ *)
(* Payload encoders                                                    *)
(* ------------------------------------------------------------------ *)

let put_query buf = function
  | Q_equiv { u; a; b } ->
      Buffer.add_char buf '\000';
      S.put_string buf u;
      S.put_varint buf a;
      S.put_varint buf b
  | Q_call { u; call; mem } ->
      Buffer.add_char buf '\001';
      S.put_string buf u;
      S.put_varint buf call;
      S.put_varint buf mem
  | Q_prob { u; a; b } ->
      Buffer.add_char buf '\002';
      S.put_string buf u;
      S.put_varint buf a;
      S.put_varint buf b
  | Q_hoist_target { u; item } ->
      Buffer.add_char buf '\003';
      S.put_string buf u;
      S.put_varint buf item

let put_equiv buf (r : Q.equiv_result) =
  Buffer.add_char buf
    (match r with
    | Q.Equiv_none -> '\000'
    | Q.Equiv_same T.Definitely -> '\001'
    | Q.Equiv_same T.Maybe -> '\002'
    | Q.Equiv_alias -> '\003'
    | Q.Equiv_unknown -> '\004')

let put_call buf (r : Q.call_acc_result) =
  Buffer.add_char buf
    (match r with
    | Q.Call_none -> '\000'
    | Q.Call_ref -> '\001'
    | Q.Call_mod -> '\002'
    | Q.Call_refmod -> '\003'
    | Q.Call_unknown -> '\004')

let put_answer buf = function
  | A_equiv r ->
      Buffer.add_char buf '\000';
      put_equiv buf r
  | A_call r ->
      Buffer.add_char buf '\001';
      put_call buf r
  | A_prob (r, p) ->
      Buffer.add_char buf '\002';
      put_equiv buf r;
      S.put_varint buf p
  | A_hoist_target o ->
      Buffer.add_char buf '\003';
      S.put_opt buf S.put_varint o

(* (id, per-copy ids) pairs of Maintain.unroll_result *)
let put_ipairs buf l =
  S.put_list buf
    (fun b (id, arr) ->
      S.put_varint b id;
      S.put_list b (fun b x -> S.put_varint b x) (Array.to_list arr))
    l

let request_tag = function
  | Hello _ -> 0x01
  | Open_hli _ -> 0x02
  | Batch _ -> 0x03
  | Notify_delete _ -> 0x04
  | Notify_gen _ -> 0x05
  | Notify_move _ -> 0x06
  | Notify_unroll _ -> 0x07
  | Refresh _ -> 0x08
  | Line_table _ -> 0x09
  | Stats -> 0x0a
  | Close -> 0x0b
  | Shm_list -> 0x0c
  | Open_delta _ -> 0x0d
  | Delta_fill _ -> 0x0e

let is_request_tag t = t >= 0x01 && t <= 0x0e

let response_tag = function
  | R_hello _ -> 0x81
  | R_opened _ -> 0x82
  | R_results _ -> 0x83
  | R_ack -> 0x84
  | R_gen _ -> 0x85
  | R_moved _ -> 0x86
  | R_unrolled _ -> 0x87
  | R_line_table _ -> 0x88
  | R_stats _ -> 0x89
  | R_closing -> 0x8a
  | R_shm_list _ -> 0x8b
  | R_delta_need _ -> 0x8c
  | R_error _ -> 0xff

let is_response_tag t = (t >= 0x81 && t <= 0x8c) || t = 0xff

let frame tag payload =
  let buf = Buffer.create (String.length payload + 12) in
  Buffer.add_char buf (Char.chr tag);
  S.put_varint buf (String.length payload);
  Buffer.add_string buf payload;
  S.put_crc32 buf payload;
  Buffer.contents buf

let request_payload (r : request) : string =
  let buf = Buffer.create 64 in
  (match r with
  | Hello { version } -> S.put_varint buf version
  | Open_hli bytes -> S.put_string buf bytes
  | Batch qs -> S.put_list buf put_query qs
  | Notify_delete { u; item } ->
      S.put_string buf u;
      S.put_varint buf item
  | Notify_gen { u; like; line } ->
      S.put_string buf u;
      S.put_varint buf like;
      S.put_varint buf line
  | Notify_move { u; item; target_rid } ->
      S.put_string buf u;
      S.put_varint buf item;
      S.put_varint buf target_rid
  | Notify_unroll { u; rid; factor } ->
      S.put_string buf u;
      S.put_varint buf rid;
      S.put_varint buf factor
  | Refresh u | Line_table u -> S.put_string buf u
  | Stats | Close | Shm_list -> ()
  | Open_delta refs ->
      S.put_list buf
        (fun b (name, hash) ->
          S.put_string b name;
          S.put_string b hash)
        refs
  | Delta_fill payloads -> S.put_list buf S.put_string payloads);
  Buffer.contents buf

(* append the framed request to [buf] without building the
   intermediate frame string — the hot path for pipelined sends *)
let frame_into buf tag payload =
  Buffer.add_char buf (Char.chr tag);
  S.put_varint buf (String.length payload);
  Buffer.add_string buf payload;
  S.put_crc32 buf payload

let encode_request_into buf (r : request) =
  frame_into buf (request_tag r) (request_payload r)

let request_to_string (r : request) : string =
  frame (request_tag r) (request_payload r)

let response_payload (r : response) : string =
  let buf = Buffer.create 64 in
  (match r with
  | R_hello { version; shm_dir } ->
      S.put_varint buf version;
      S.put_opt buf S.put_string shm_dir
  | R_opened units ->
      S.put_list buf
        (fun b (name, dups) ->
          S.put_string b name;
          S.put_list b (fun b x -> S.put_varint b x) dups)
        units
  | R_results answers -> S.put_list buf put_answer answers
  | R_ack | R_closing -> ()
  | R_gen id -> S.put_varint buf id
  | R_moved b -> S.put_bool buf b
  | R_unrolled { Hli_core.Maintain.copies; new_classes } ->
      put_ipairs buf copies;
      put_ipairs buf new_classes
  | R_line_table lt -> S.put_list buf S.put_line lt
  | R_stats json -> S.put_string buf json
  | R_shm_list segs ->
      S.put_list buf
        (fun b (name, path) ->
          S.put_string b name;
          S.put_string b path)
        segs
  | R_delta_need idxs -> S.put_list buf S.put_varint idxs
  | R_error { e_code; e_msg } ->
      S.put_string buf e_code;
      S.put_string buf e_msg);
  Buffer.contents buf

let encode_response_into buf (r : response) =
  frame_into buf (response_tag r) (response_payload r)

let response_to_string (r : response) : string =
  frame (response_tag r) (response_payload r)

(* ------------------------------------------------------------------ *)
(* Payload decoders                                                    *)
(* ------------------------------------------------------------------ *)

let get_query ?(get_u = S.get_string) cur =
  match S.byte cur with
  | 0 ->
      let u = get_u cur in
      let a = S.get_varint cur in
      let b = S.get_varint cur in
      Q_equiv { u; a; b }
  | 1 ->
      let u = get_u cur in
      let call = S.get_varint cur in
      let mem = S.get_varint cur in
      Q_call { u; call; mem }
  | 2 ->
      let u = get_u cur in
      let a = S.get_varint cur in
      let b = S.get_varint cur in
      Q_prob { u; a; b }
  | 3 ->
      let u = get_u cur in
      let item = S.get_varint cur in
      Q_hoist_target { u; item }
  | n -> err ~at:(cur.S.pos - 1) "E1105" "bad query tag %d" n

(* A Batch almost always repeats one unit name across every query;
   reusing the previous string when the bytes match skips the
   per-query allocation AND hands the server physically-equal keys, so
   its own per-batch unit memoization is a pointer compare. *)
let get_batch cur =
  let last = ref "" in
  let get_u cur =
    let n = S.get_varint cur in
    if n > S.remaining cur then
      err ~at:cur.S.pos "E1105" "string length %d exceeds the %d remaining bytes"
        n (S.remaining cur);
    let l = !last in
    let pos = cur.S.pos in
    if
      String.length l = n
      &&
      let rec eq i =
        i = n
        || String.unsafe_get l i = String.unsafe_get cur.S.data (pos + i)
           && eq (i + 1)
      in
      eq 0
    then begin
      cur.S.pos <- pos + n;
      l
    end
    else begin
      let s = String.sub cur.S.data pos n in
      cur.S.pos <- pos + n;
      last := s;
      s
    end
  in
  S.get_list cur (get_query ~get_u)

let get_equiv cur : Q.equiv_result =
  match S.byte cur with
  | 0 -> Q.Equiv_none
  | 1 -> Q.Equiv_same T.Definitely
  | 2 -> Q.Equiv_same T.Maybe
  | 3 -> Q.Equiv_alias
  | 4 -> Q.Equiv_unknown
  | n -> err ~at:(cur.S.pos - 1) "E1105" "bad equiv result %d" n

let get_call cur : Q.call_acc_result =
  match S.byte cur with
  | 0 -> Q.Call_none
  | 1 -> Q.Call_ref
  | 2 -> Q.Call_mod
  | 3 -> Q.Call_refmod
  | 4 -> Q.Call_unknown
  | n -> err ~at:(cur.S.pos - 1) "E1105" "bad call result %d" n

let get_answer cur =
  match S.byte cur with
  | 0 -> A_equiv (get_equiv cur)
  | 1 -> A_call (get_call cur)
  | 2 ->
      let r = get_equiv cur in
      A_prob (r, S.get_varint cur)
  | 3 -> A_hoist_target (S.get_opt cur S.get_varint)
  | n -> err ~at:(cur.S.pos - 1) "E1105" "bad answer tag %d" n

let get_ipairs cur =
  S.get_list cur (fun cur ->
      let id = S.get_varint cur in
      let l = S.get_list cur S.get_varint in
      (id, Array.of_list l))

let decode_request_payload tag cur : request =
  match tag with
  | 0x01 -> Hello { version = S.get_varint cur }
  | 0x02 -> Open_hli (S.get_string cur)
  | 0x03 -> Batch (get_batch cur)
  | 0x04 ->
      let u = S.get_string cur in
      Notify_delete { u; item = S.get_varint cur }
  | 0x05 ->
      let u = S.get_string cur in
      let like = S.get_varint cur in
      Notify_gen { u; like; line = S.get_varint cur }
  | 0x06 ->
      let u = S.get_string cur in
      let item = S.get_varint cur in
      Notify_move { u; item; target_rid = S.get_varint cur }
  | 0x07 ->
      let u = S.get_string cur in
      let rid = S.get_varint cur in
      Notify_unroll { u; rid; factor = S.get_varint cur }
  | 0x08 -> Refresh (S.get_string cur)
  | 0x09 -> Line_table (S.get_string cur)
  | 0x0a -> Stats
  | 0x0b -> Close
  | 0x0c -> Shm_list
  | 0x0d ->
      Open_delta
        (S.get_list cur (fun cur ->
             let name = S.get_string cur in
             let hash = S.get_string cur in
             if String.length hash <> 16 then
               err ~at:cur.S.pos "E1105"
                 "entry hash of %d bytes (want 16, an MD5 digest)"
                 (String.length hash);
             (name, hash)))
  | 0x0e -> Delta_fill (S.get_list cur S.get_string)
  | _ -> assert false (* tag validated by the framing layer *)

let decode_response_payload tag cur : response =
  match tag with
  | 0x81 ->
      let version = S.get_varint cur in
      let shm_dir = S.get_opt cur S.get_string in
      R_hello { version; shm_dir }
  | 0x82 ->
      R_opened
        (S.get_list cur (fun cur ->
             let name = S.get_string cur in
             (name, S.get_list cur S.get_varint)))
  | 0x83 -> R_results (S.get_list cur get_answer)
  | 0x84 -> R_ack
  | 0x85 -> R_gen (S.get_varint cur)
  | 0x86 -> R_moved (S.get_bool cur)
  | 0x87 ->
      let copies = get_ipairs cur in
      let new_classes = get_ipairs cur in
      R_unrolled { Hli_core.Maintain.copies; new_classes }
  | 0x88 -> R_line_table (S.get_list cur S.get_line)
  | 0x89 -> R_stats (S.get_string cur)
  | 0x8a -> R_closing
  | 0x8b ->
      R_shm_list
        (S.get_list cur (fun cur ->
             let name = S.get_string cur in
             (name, S.get_string cur)))
  | 0x8c -> R_delta_need (S.get_list cur S.get_varint)
  | 0xff ->
      let e_code = S.get_string cur in
      R_error { e_code; e_msg = S.get_string cur }
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Framing layer: a streaming, zero-copy parser                        *)
(* ------------------------------------------------------------------ *)

let is_protocol_code c = String.length c >= 3 && String.sub c 0 3 = "E11"

(* A payload decoder uses the E06xx serializer primitives; any fault it
   raises is, at this layer, one thing: a malformed payload. *)
let remap_payload_fault f cur =
  try f cur
  with S.Corrupt c when not (is_protocol_code c.c_code) ->
    err ~at:c.c_at "E1105" "malformed frame payload: %s" c.c_msg

type frame_info = {
  f_tag : int;
  f_payload_ofs : int;  (** absolute offset of the payload in the buffer *)
  f_payload_len : int;
  f_end : int;  (** offset just past the CRC — where the next frame starts *)
}

(* [parse_frame buf ~ofs ~len] examines the [len] valid bytes starting
   at [ofs] for one frame.  [None] means the frame is incomplete — feed
   more bytes and retry.  Malformations that are already decidable from
   a prefix (unknown tag, oversized or overlong length varint, CRC
   mismatch once the whole frame is present) raise eagerly, so a
   hostile peer is rejected before its payload is ever buffered.  The
   frame is never copied: the caller decodes it in place with
   {!decode_request_at}/{!decode_response_at}. *)
let parse_frame ?(max_frame = default_max_frame) ~kind ~known (buf : Bytes.t)
    ~ofs ~len : frame_info option =
  if len <= 0 then None
  else begin
    let tag = Char.code (Bytes.get buf ofs) in
    if not (known tag) then
      err ~at:0 "E1101" "unknown %s frame tag %#x" kind tag;
    (* length varint: scan for its last byte, bounded like the
       serializer's (9 bytes), without committing a cursor yet *)
    let rec scan i =
      if i >= 9 then err "E1105" "frame length varint exceeds 9 bytes"
      else if 1 + i >= len then None
      else if Char.code (Bytes.get buf (ofs + 1 + i)) land 0x80 <> 0 then
        scan (i + 1)
      else Some ()
    in
    match scan 0 with
    | None -> None
    | Some () ->
        (* the cursor below stays within the scanned varint bytes, all
           inside the valid region, so the whole-buffer view is safe *)
        let cur = { S.data = Bytes.unsafe_to_string buf; S.pos = ofs + 1 } in
        let plen =
          try S.get_varint cur
          with S.Corrupt c ->
            err ~at:c.c_at "E1105" "malformed frame length: %s" c.c_msg
        in
        if plen > max_frame then
          err ~at:(ofs + 1) "E1104"
            "frame payload of %d bytes exceeds the %d-byte bound" plen
            max_frame;
        let payload_ofs = cur.S.pos in
        if payload_ofs - ofs + plen + 4 > len then None
        else begin
          cur.S.pos <- payload_ofs + plen;
          let stored = S.get_crc32 cur in
          let computed = S.crc32 (Bytes.unsafe_to_string buf) payload_ofs plen in
          if stored <> computed then
            err ~at:payload_ofs "E1103"
              "frame CRC32 mismatch (stored %08x, computed %08x)" stored
              computed;
          Some
            {
              f_tag = tag;
              f_payload_ofs = payload_ofs;
              f_payload_len = plen;
              f_end = payload_ofs + plen + 4;
            }
        end
  end

(* Decode a parsed frame's payload in place.  The cursor ranges over
   the whole buffer, but [parse_frame] guaranteed the payload bytes are
   valid and CRC-checked; a decoder that strays outside them cannot
   land back exactly on the payload end (positions only advance), so
   the final exact-length check subsumes the per-payload bound. *)
let decode_payload_at decode (buf : Bytes.t) (fi : frame_info) =
  let cur = { S.data = Bytes.unsafe_to_string buf; S.pos = fi.f_payload_ofs } in
  let v = remap_payload_fault (decode fi.f_tag) cur in
  if cur.S.pos <> fi.f_payload_ofs + fi.f_payload_len then
    err ~at:cur.S.pos "E1105" "%d undecoded payload bytes"
      (fi.f_payload_ofs + fi.f_payload_len - cur.S.pos);
  v

let decode_request_at buf fi : request =
  decode_payload_at decode_request_payload buf fi

let decode_response_at buf fi : response =
  decode_payload_at decode_response_payload buf fi

(* The pure string path (fuzz harness, tests) runs through the same
   streaming parser the server and client use, so the harness exercises
   exactly the production decode path. *)
let decode_with ~kind ~known decode ?max_frame (s : string) =
  let len = String.length s in
  if len = 0 then err ~at:0 "E1102" "empty %s frame" kind;
  let buf = Bytes.unsafe_of_string s in
  match parse_frame ?max_frame ~kind ~known buf ~ofs:0 ~len with
  | None -> err ~at:len "E1102" "truncated %s frame" kind
  | Some fi ->
      if fi.f_end <> len then
        err ~at:fi.f_end "E1105" "%d trailing bytes after frame"
          (len - fi.f_end);
      decode_payload_at decode buf fi

let request_of_string ?max_frame s : request =
  decode_with ~kind:"request" ~known:is_request_tag decode_request_payload
    ?max_frame s

let response_of_string ?max_frame s : response =
  decode_with ~kind:"response" ~known:is_response_tag decode_response_payload
    ?max_frame s

(* ------------------------------------------------------------------ *)
(* Socket I/O                                                          *)
(* ------------------------------------------------------------------ *)

type 'a recv = Got of 'a | Closed

(* Deadline clock for every wire timeout: CLOCK_MONOTONIC, in seconds.
   Wall time (gettimeofday) steps under NTP, which would fire or starve
   request deadlines; all deadlines passed to [wait_fd]/[write_all]/
   [recv_with] must be computed as [now () +. budget] from this same
   clock. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* true iff [fd] becomes ready before [deadline] ([None] = wait
   forever).  EINTR recomputes the {e remaining} time — an interrupted
   wait must never restart the full budget. *)
let wait_fd ~for_read fd deadline =
  let rec go () =
    let left =
      match deadline with
      | None -> -1.0 (* negative timeout: block until ready *)
      | Some d -> d -. now ()
    in
    if (match deadline with Some _ -> left <= 0.0 | None -> false) then false
    else
      let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
      match Unix.select r w [] left with
      | [], [], _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait_readable fd deadline = wait_fd ~for_read:true fd (Some deadline)

(* ------------------------------------------------------------------ *)
(* Buffered reader: per-connection reused buffer with pushback         *)
(* ------------------------------------------------------------------ *)

(* One [reader] owns one fd's inbound byte stream.  Reads pull as many
   bytes as the kernel has ready into a grow-once scratch buffer;
   frames are parsed and decoded in place and surplus bytes (the start
   of the next frame of a pipelined train) simply stay buffered for
   the next receive — no per-frame allocation, no one-byte syscalls. *)
type reader = {
  rd_fd : Unix.file_descr;
  mutable rd_buf : Bytes.t;
  mutable rd_ofs : int;  (** start of unconsumed bytes *)
  mutable rd_len : int;  (** end of valid bytes *)
}

let reader ?(initial = 64 * 1024) fd =
  { rd_fd = fd; rd_buf = Bytes.create (max 16 initial); rd_ofs = 0; rd_len = 0 }

let reader_buffered rd = rd.rd_len - rd.rd_ofs

(* a reply may already be buffered, or bytes may be ready to read;
   this is a poll (zero-timeout select), never a wait *)
let readable rd =
  reader_buffered rd > 0
  ||
  let rec poll () =
    match Unix.select [ rd.rd_fd ] [] [] 0.0 with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

(* make room to read: compact (cheap, reuses the buffer) before
   growing (only when one frame outgrows the current buffer) *)
let rd_make_room rd =
  if rd.rd_len = Bytes.length rd.rd_buf then
    if rd.rd_ofs > 0 then begin
      Bytes.blit rd.rd_buf rd.rd_ofs rd.rd_buf 0 (rd.rd_len - rd.rd_ofs);
      rd.rd_len <- rd.rd_len - rd.rd_ofs;
      rd.rd_ofs <- 0
    end
    else begin
      let nb = Bytes.create (2 * Bytes.length rd.rd_buf) in
      Bytes.blit rd.rd_buf 0 nb 0 rd.rd_len;
      rd.rd_buf <- nb
    end

(* pull whatever the kernel has ready; never blocks longer than one
   [read] on a blocking fd that [select] reported readable *)
let rd_refill rd =
  rd_make_room rd;
  match
    Unix.read rd.rd_fd rd.rd_buf rd.rd_len (Bytes.length rd.rd_buf - rd.rd_len)
  with
  | 0 -> `Eof
  | k ->
      rd.rd_len <- rd.rd_len + k;
      `Data
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Again
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
  | exception Unix.Unix_error (e, _, _) ->
      err "E1110" "read failed: %s" (Unix.error_message e)

(* Receive one frame through [rd].  [timeout] bounds the wait for the
   frame; once a frame has started (including pushed-back bytes from a
   previous read) the budget restarts for the rest of it.  Expiry
   raises E1109.  EOF before the first byte is [Closed]; EOF mid-frame
   is E1102. *)
let recv_with ~kind ~known decode ?(max_frame = default_max_frame)
    ?(timeout = default_timeout) rd : 'a recv =
  let try_parse () =
    match
      parse_frame ~max_frame ~kind ~known rd.rd_buf ~ofs:rd.rd_ofs
        ~len:(reader_buffered rd)
    with
    | None -> None
    | Some fi ->
        let v = decode rd.rd_buf fi in
        rd.rd_ofs <- fi.f_end;
        if rd.rd_ofs = rd.rd_len then begin
          rd.rd_ofs <- 0;
          rd.rd_len <- 0
        end;
        Some v
  in
  match try_parse () with
  | Some v -> Got v
  | None ->
      let started () = reader_buffered rd > 0 in
      let rec go deadline =
        if not (wait_readable rd.rd_fd deadline) then
          if started () then err "E1109" "timed out mid-frame reading a %s" kind
          else err "E1109" "timed out waiting for a %s frame" kind
        else begin
          let was_started = started () in
          match rd_refill rd with
          | `Eof ->
              if started () then
                err "E1102" "connection closed mid-frame (reading a %s)" kind
              else Closed
          | `Again -> go deadline
          | `Data -> (
              match try_parse () with
              | Some v -> Got v
              | None ->
                  (* the first byte of a frame restarts the budget for
                     the rest of the frame *)
                  let deadline =
                    if was_started then deadline else now () +. timeout
                  in
                  go deadline)
        end
      in
      go (now () +. timeout)

let recv_request ?max_frame ?timeout rd : request recv =
  recv_with ~kind:"request" ~known:is_request_tag decode_request_at ?max_frame
    ?timeout rd

(** Clients have no idle state: EOF means the server went away
    (E1110), and a quiet line past [timeout] is E1109. *)
let recv_response ?max_frame ?timeout rd : response =
  match
    recv_with ~kind:"response" ~known:is_response_tag decode_response_at
      ?max_frame ?timeout rd
  with
  | Got r -> r
  | Closed -> err "E1110" "connection closed by server"

(* Write the whole frame, surviving partial writes, EINTR, and
   EAGAIN/0-byte writes on non-blocking fds: no progress means wait
   for writability (never a busy-loop, never a dropped frame tail).
   [deadline] bounds the whole write; expiry raises E1109. *)
let write_all ?deadline fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go ofs =
    if ofs < n then
      match Unix.write fd b ofs (n - ofs) with
      | 0 -> await ofs
      | k -> go (ofs + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          await ofs
      | exception Unix.Unix_error (e, _, _) ->
          err "E1110" "write failed: %s" (Unix.error_message e)
  and await ofs =
    if wait_fd ~for_read:false fd deadline then go ofs
    else err "E1109" "timed out writing a frame (%d of %d bytes sent)" ofs n
  in
  go 0

let send_request ?deadline fd r = write_all ?deadline fd (request_to_string r)
let send_response ?deadline fd r = write_all ?deadline fd (response_to_string r)

(** Render a protocol fault as a structured diagnostic (phase [Net],
    process exit code 7). *)
let diagnostic_of_fault ?file (c : S.corruption) =
  Diagnostics.make ?file ~code:c.c_code ~phase:Diagnostics.Net
    ~severity:Diagnostics.Error
    (if c.c_at >= 0 then Printf.sprintf "%s (at byte %d)" c.c_msg c.c_at
     else c.c_msg)
