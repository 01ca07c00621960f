(** Binary (de)serialization of HLI files: the HLI4 container.

    The paper defines the logical layout (its Figure 1) but not a byte
    format; HLI4 is the one container this repository reads and writes.
    Integers are LEB128 varints and strings are length-prefixed.  The
    file is a front-end/back-end {e interface} that must not trust its
    producer, so:

    - option fields carry an explicit tag byte (0 = [None], 1 =
      [Some]), so [Some 0] survives the round-trip;
    - booleans and all constructor tags reject bytes outside their
      range;
    - varints are bounded: at most 9 bytes, and the final byte may not
      push the value past 62 bits ([max_int] on 64-bit OCaml);
    - every list length is checked against the remaining input before
      anything is allocated;
    - each entry is length-prefixed and followed by a CRC32 of its
      payload, so truncation and bit-rot are reported per entry instead
      of decoding into garbage tables.

    [of_bytes (to_bytes f) = f] holds for {e every} value of
    {!Tables.hli_file} (property-tested, including [Some 0] boundary
    values).  All decode failures raise {!Corrupt} carrying a precise
    E06xx code; {!read_file} re-raises them as {!Diagnostics} (and runs
    the {!Validate} structural checks on the decoded file).

    Table 1's size ({!size_bytes}) is not the container's length: the
    paper measures the information payload, so it is computed over the
    logical schema without encoding anything. *)

open Tables

(** Why a decode was rejected.  [c_code] is a [Diagnostics] E06xx code
    (see the table in [lib/driver/diagnostics.ml]); [c_at] is the byte
    offset in the input, [-1] when unknown. *)
type corruption = { c_code : string; c_at : int; c_msg : string }

exception Corrupt of corruption

let corrupt ?(at = -1) ~code fmt =
  Fmt.kstr (fun m -> raise (Corrupt { c_code = code; c_at = at; c_msg = m })) fmt

let corruption_to_string c =
  if c.c_at >= 0 then Printf.sprintf "[%s] byte %d: %s" c.c_code c.c_at c.c_msg
  else Printf.sprintf "[%s] %s" c.c_code c.c_msg

(** Re-raise a {!Corrupt} as a structured diagnostic (the file-level
    entry points do this so drivers render [file: error[E06xx]: ...]). *)
let diagnostic_of_corruption ?file c =
  Diagnostics.make ?file ~code:c.c_code ~phase:Diagnostics.Hligen
    ~severity:Diagnostics.Error
    (if c.c_at >= 0 then Printf.sprintf "%s (at byte %d)" c.c_msg c.c_at
     else c.c_msg)

let magic = "HLI4"

(** Version tag of the container {!to_bytes} writes; part of the HLI
    cache key so a format revision invalidates stale cache entries. *)
let format_version = magic

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected)                                       *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: tables.(k).(b) is the CRC of byte [b] followed by [k]
   zero bytes, so eight table lookups advance the state by eight input
   bytes at once.  The wire protocol checksums every frame payload in
   both directions, which makes this loop hot enough to matter.  Built
   eagerly at module init: pool domains all checksum frames, and a
   [lazy] forced from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let crc_tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let t = Array.make 8 t0 in
  for k = 1 to 7 do
    t.(k) <-
      Array.init 256 (fun n ->
          let c = t.(k - 1).(n) in
          t0.(c land 0xff) lxor (c lsr 8))
  done;
  t

(** CRC32 (IEEE 802.3, reflected) of [s.[ofs .. ofs+len-1]]. *)
let crc32 s ofs len =
  if ofs < 0 || len < 0 || ofs > String.length s - len then
    invalid_arg "Serialize.crc32";
  let t = crc_tables in
  let t0 = t.(0)
  and t1 = t.(1)
  and t2 = t.(2)
  and t3 = t.(3)
  and t4 = t.(4)
  and t5 = t.(5)
  and t6 = t.(6)
  and t7 = t.(7) in
  (* bounds are established above; unsafe reads keep the inner loop
     branch-free *)
  let b i = Char.code (String.unsafe_get s i) in
  let c = ref 0xffffffff in
  let i = ref ofs in
  let stop = ofs + len in
  while stop - !i >= 8 do
    let p = !i in
    let lo =
      !c lxor (b p lor (b (p + 1) lsl 8) lor (b (p + 2) lsl 16)
               lor (b (p + 3) lsl 24))
    in
    let hi =
      b (p + 4) lor (b (p + 5) lsl 8) lor (b (p + 6) lsl 16)
      lor (b (p + 7) lsl 24)
    in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := p + 8
  done;
  while !i < stop do
    c := Array.unsafe_get t0 ((!c lxor b !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Writer primitives                                                   *)
(* ------------------------------------------------------------------ *)

(* varints are unsigned: a negative value is a producer bug, reported
   before anything is written or counted *)
let check_varint n =
  if n < 0 then
    Diagnostics.error ~code:"E0601" ~phase:Diagnostics.Hligen
      "negative varint value %d" n

let put_varint buf n =
  check_varint n;
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_list buf f l =
  put_varint buf (List.length l);
  List.iter (f buf) l

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

(* explicit option tag, so Some 0 and None stay distinct *)
let put_opt buf f = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      f buf v

let put_crc32 buf s =
  let c = crc32 s 0 (String.length s) in
  Buffer.add_char buf (Char.chr (c land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 24) land 0xff))

(* ------------------------------------------------------------------ *)
(* Entry writer                                                        *)
(* ------------------------------------------------------------------ *)

let put_acc buf = function
  | Acc_load -> Buffer.add_char buf '\000'
  | Acc_store -> Buffer.add_char buf '\001'
  | Acc_call -> Buffer.add_char buf '\002'

let put_item buf it =
  put_varint buf it.item_id;
  put_acc buf it.acc

let put_line buf le =
  put_varint buf le.line_no;
  put_list buf put_item le.items

let put_member buf = function
  | Member_item id ->
      Buffer.add_char buf '\000';
      put_varint buf id
  | Member_subclass { sub_region; cls } ->
      Buffer.add_char buf '\001';
      put_varint buf sub_region;
      put_varint buf cls

let put_class buf c =
  put_varint buf c.class_id;
  Buffer.add_char buf (match c.kind with Definitely -> '\000' | Maybe -> '\001');
  put_string buf c.desc;
  put_list buf put_member c.members

let put_alias buf a = put_list buf put_varint a.alias_classes

let put_lcdd buf l =
  put_varint buf l.lcdd_src;
  put_varint buf l.lcdd_dst;
  Buffer.add_char buf (match l.lcdd_dep with Dep_definite -> '\000' | Dep_maybe -> '\001');
  put_opt buf put_varint l.lcdd_distance

let put_callrefmod buf e =
  (match e.call_key with
  | Key_call_item id ->
      Buffer.add_char buf '\000';
      put_varint buf id
  | Key_sub_region r ->
      Buffer.add_char buf '\001';
      put_varint buf r);
  put_bool buf e.refmod_all;
  put_list buf put_varint e.ref_classes;
  put_list buf put_varint e.mod_classes

let put_region buf r =
  put_varint buf r.region_id;
  Buffer.add_char buf (match r.rtype with Region_unit -> '\000' | Region_loop -> '\001');
  put_opt buf put_varint r.parent;
  put_varint buf r.first_line;
  put_varint buf r.last_line;
  put_list buf put_class r.eq_classes;
  put_list buf put_alias r.aliases;
  put_list buf put_lcdd r.lcdds;
  put_list buf put_callrefmod r.callrefmods

let put_entry buf e =
  put_string buf e.unit_name;
  put_list buf put_line e.line_table;
  put_list buf put_region e.regions

(* ------------------------------------------------------------------ *)
(* Table 1 size                                                        *)
(* ------------------------------------------------------------------ *)

(* Table 1 measures the information an HLI file carries, not container
   overhead, so the size is a sum over the logical schema: the 4-byte
   magic; a varint per integer and per string or list length; the
   string bytes; one byte per tag or bool; and for an optional field the
   varint of its value, or of 0 when it is absent.  No entry lengths,
   CRCs or option tags count.  These are the lengths of
   the first (HLI1) payload encoding, which the column has always been
   measured with; the test suite keeps that encoder as the oracle. *)

let size_varint n =
  check_varint n;
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

let size_string s = size_varint (String.length s) + String.length s

let rec size_elems size acc = function
  | [] -> acc
  | x :: l -> size_elems size (acc + size x) l

let size_list size l = size_elems size (size_varint (List.length l)) l

let size_opt o = size_varint (Option.value o ~default:0)

let size_item it = size_varint it.item_id + 1

let size_line le = size_varint le.line_no + size_list size_item le.items

let size_member = function
  | Member_item id -> 1 + size_varint id
  | Member_subclass { sub_region; cls } -> 1 + size_varint sub_region + size_varint cls

let size_class c =
  size_varint c.class_id + 1 + size_string c.desc
  + size_list size_member c.members

let size_lcdd l =
  size_varint l.lcdd_src + size_varint l.lcdd_dst + 1
  + size_opt l.lcdd_distance

let size_callrefmod e =
  let key = match e.call_key with Key_call_item id | Key_sub_region id -> id in
  1 + size_varint key + 1 + size_list size_varint e.ref_classes
  + size_list size_varint e.mod_classes

let size_region r =
  size_varint r.region_id + 1 + size_opt r.parent
  + size_varint r.first_line + size_varint r.last_line
  + size_list size_class r.eq_classes
  + size_list (fun a -> size_list size_varint a.alias_classes) r.aliases
  + size_list size_lcdd r.lcdds
  + size_list size_callrefmod r.callrefmods

let size_entry e =
  size_string e.unit_name
  + size_list size_line e.line_table
  + size_list size_region e.regions

(** Serialized payload size in bytes: the paper's Table 1 metric.
    Builds no buffer; raises E0601 on a negative value, as encoding
    would. *)
let size_bytes (f : hli_file) : int =
  String.length magic + size_list size_entry f.entries

(* ------------------------------------------------------------------ *)
(* Reader primitives                                                   *)
(* ------------------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int }

let remaining cur = String.length cur.data - cur.pos

let byte cur =
  if cur.pos >= String.length cur.data then
    corrupt ~at:cur.pos ~code:"E0611" "truncated input";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

(* Bounded LEB128: at most 9 bytes (shifts 0..56), and the 9th byte may
   not carry a continuation bit or push the value past 62 bits — a
   crafted run of continuation bytes must not be able to loop past sane
   limits or overflow the OCaml int. *)
let get_varint_slow cur =
  let start = cur.pos in
  let rec go shift acc =
    let b = byte cur in
    if shift = 56 && (b land 0x80 <> 0 || b > 0x3f) then
      corrupt ~at:start ~code:"E0612"
        "varint exceeds 9 bytes / 62 bits (byte %#x at shift %d)" b shift;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let get_varint cur =
  (* fast path: single-byte value, by far the common case on the wire
     (tags, small ids, short string lengths) *)
  let pos = cur.pos in
  if pos < String.length cur.data then begin
    let b = Char.code (String.unsafe_get cur.data pos) in
    if b < 0x80 then begin
      cur.pos <- pos + 1;
      b
    end
    else get_varint_slow cur
  end
  else get_varint_slow cur (* re-raises the truncation corrupt *)

let get_string cur =
  let n = get_varint cur in
  if n > remaining cur then
    corrupt ~at:cur.pos ~code:"E0613"
      "string length %d exceeds the %d remaining bytes" n (remaining cur);
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* Every element encodes to at least one byte, so a decoded element
   count larger than the remaining input is corrupt by construction —
   checked before List.init so a 5-byte file cannot demand a multi-GB
   allocation. *)
let get_list cur f =
  let n = get_varint cur in
  if n > remaining cur then
    corrupt ~at:cur.pos ~code:"E0613"
      "list length %d exceeds the %d remaining bytes" n (remaining cur);
  List.init n (fun _ -> f cur)

let get_bool cur =
  match byte cur with
  | 0 -> false
  | 1 -> true
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad bool tag %d" n

let get_opt cur f =
  match byte cur with
  | 0 -> None
  | 1 -> Some (f cur)
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad option tag %d" n

let get_crc32 cur =
  if remaining cur < 4 then
    corrupt ~at:cur.pos ~code:"E0611" "truncated CRC32";
  let b i = Char.code cur.data.[cur.pos + i] in
  let c = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  cur.pos <- cur.pos + 4;
  c

(* ------------------------------------------------------------------ *)
(* Entry reader                                                        *)
(* ------------------------------------------------------------------ *)

let get_acc cur =
  match byte cur with
  | 0 -> Acc_load
  | 1 -> Acc_store
  | 2 -> Acc_call
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad access type %d" n

let get_item cur =
  let item_id = get_varint cur in
  { item_id; acc = get_acc cur }

let get_line cur =
  let line_no = get_varint cur in
  { line_no; items = get_list cur get_item }

let get_member cur =
  match byte cur with
  | 0 -> Member_item (get_varint cur)
  | 1 ->
      let sub_region = get_varint cur in
      Member_subclass { sub_region; cls = get_varint cur }
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad member tag %d" n

let get_class cur =
  let class_id = get_varint cur in
  let kind =
    match byte cur with
    | 0 -> Definitely
    | 1 -> Maybe
    | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad equiv kind %d" n
  in
  let desc = get_string cur in
  { class_id; kind; desc; members = get_list cur get_member }

let get_alias cur = { alias_classes = get_list cur get_varint }

let get_dep cur =
  match byte cur with
  | 0 -> Dep_definite
  | 1 -> Dep_maybe
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad dep type %d" n

let get_lcdd cur =
  let lcdd_src = get_varint cur in
  let lcdd_dst = get_varint cur in
  let lcdd_dep = get_dep cur in
  let lcdd_distance = get_opt cur get_varint in
  { lcdd_src; lcdd_dst; lcdd_dep; lcdd_distance }

let get_call_key cur =
  match byte cur with
  | 0 -> Key_call_item (get_varint cur)
  | 1 -> Key_sub_region (get_varint cur)
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad call key %d" n

let get_callrefmod cur =
  let call_key = get_call_key cur in
  let refmod_all = get_bool cur in
  let ref_classes = get_list cur get_varint in
  let mod_classes = get_list cur get_varint in
  { call_key; ref_classes; mod_classes; refmod_all }

let get_rtype cur =
  match byte cur with
  | 0 -> Region_unit
  | 1 -> Region_loop
  | n -> corrupt ~at:(cur.pos - 1) ~code:"E0614" "bad region type %d" n

let get_region cur =
  let region_id = get_varint cur in
  let rtype = get_rtype cur in
  let parent = get_opt cur get_varint in
  let first_line = get_varint cur in
  let last_line = get_varint cur in
  let eq_classes = get_list cur get_class in
  let aliases = get_list cur get_alias in
  let lcdds = get_list cur get_lcdd in
  let callrefmods = get_list cur get_callrefmod in
  { region_id; rtype; parent; first_line; last_line; eq_classes; aliases; lcdds; callrefmods }

let get_entry cur =
  let unit_name = get_string cur in
  let line_table = get_list cur get_line in
  let regions = get_list cur get_region in
  { unit_name; line_table; regions }

(* ------------------------------------------------------------------ *)
(* Per-entry payloads and content hashes                               *)
(* ------------------------------------------------------------------ *)

(* Each entry is a self-contained length+CRC framed payload, which
   makes the function the natural unit of storage and transfer: the
   per-function disk cache keys single-entry payloads by fingerprint,
   and the hlid delta-upload path ships/references entries by content
   hash instead of re-shipping whole containers.  The cache key and the
   content hashes both cover {!format_version}, so a revision bump
   retires stale payloads instead of mis-decoding them. *)

(** Encode one entry as its bare payload (no length/CRC framing —
    {!container_of_payloads} adds it). *)
let entry_to_bytes (e : hli_entry) : string =
  let buf = Buffer.create 1024 in
  put_entry buf e;
  Buffer.contents buf

(** Decode one bare entry payload; raises {!Corrupt} (E06xx) on any
    malformation, including undecoded trailing bytes. *)
let entry_of_bytes (s : string) : hli_entry =
  let cur = { data = s; pos = 0 } in
  let e = get_entry cur in
  if cur.pos <> String.length s then
    corrupt ~at:cur.pos ~code:"E0616" "%d trailing bytes after entry"
      (remaining cur);
  e

(** Content hash of an entry: MD5 over its payload bytes.  Stable
    across container framing, so the same value names an entry in the
    disk cache, on the wire (delta uploads) and in [hli_dump]. *)
let entry_hash_of_payload (payload : string) : Digest.t =
  Digest.string payload

let entry_hash (e : hli_entry) : Digest.t =
  entry_hash_of_payload (entry_to_bytes e)

(* ------------------------------------------------------------------ *)
(* Container framing                                                   *)
(* ------------------------------------------------------------------ *)

(** Assemble a container from per-entry payloads, in order: magic,
    entry count, then each payload behind its length and followed by
    its CRC32. *)
let container_of_payloads (payloads : string list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_varint buf (List.length payloads);
  List.iter
    (fun payload ->
      put_varint buf (String.length payload);
      Buffer.add_string buf payload;
      put_crc32 buf payload)
    payloads;
  Buffer.contents buf

(** Inverse of {!container_of_payloads}: walk the magic, the entry
    count and each entry's length and CRC32, and return the payloads in
    order, CRC-checked but not decoded. *)
let payloads_of_container (s : string) : string list =
  if not (String.starts_with ~prefix:magic s) then
    corrupt ~at:0 ~code:"E0610" "bad magic %S (want %s)"
      (String.sub s 0 (min (String.length s) (String.length magic)))
      magic;
  let cur = { data = s; pos = String.length magic } in
  let n_entries = get_varint cur in
  if n_entries > remaining cur then
    corrupt ~at:cur.pos ~code:"E0613"
      "entry count %d exceeds the %d remaining bytes" n_entries (remaining cur);
  let payloads =
    List.init n_entries (fun i ->
        let len = get_varint cur in
        if len > remaining cur then
          corrupt ~at:cur.pos ~code:"E0613"
            "entry %d: payload length %d exceeds the %d remaining bytes" i len
            (remaining cur);
        let ofs = cur.pos in
        cur.pos <- ofs + len;
        let stored = get_crc32 cur in
        let computed = crc32 s ofs len in
        if stored <> computed then
          corrupt ~at:ofs ~code:"E0615"
            "entry %d: CRC32 mismatch (stored %08x, computed %08x)" i stored
            computed;
        String.sub s ofs len)
  in
  if cur.pos <> String.length s then
    corrupt ~at:cur.pos ~code:"E0616" "%d trailing bytes" (remaining cur);
  payloads

(** Split a container into [(unit_name, payload)] per entry, in order,
    each CRC-checked.  Only the leading unit name is decoded, so this
    is the cheap way to content-address a container's entries. *)
let split_container (s : string) : (string * string) list =
  List.map
    (fun p -> (get_string { data = p; pos = 0 }, p))
    (payloads_of_container s)

(** Encode as a container, one payload per entry. *)
let to_bytes (f : hli_file) : string =
  container_of_payloads (List.map entry_to_bytes f.entries)

(** Decode a container; raises {!Corrupt} (E06xx) on any malformation. *)
let of_bytes (s : string) : hli_file =
  { entries = List.map entry_of_bytes (payloads_of_container s) }

(** On-disk size of the container (payload + option tags + entry
    framing + CRCs); compare with {!size_bytes}. *)
let container_bytes f = String.length (to_bytes f)

(* ------------------------------------------------------------------ *)
(* File I/O and text dump                                              *)
(* ------------------------------------------------------------------ *)

let write_file path f =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes f))

(** Read and decode an HLI file.  Decode failures and — unless
    [validate] is [false] — structural-validation failures are raised
    as {!Diagnostics.Diagnostic} values carrying the file path and a
    precise E06xx code. *)
let read_file ?(validate = true) path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let f =
    try of_bytes s
    with Corrupt c ->
      raise (Diagnostics.Diagnostic (diagnostic_of_corruption ~file:path c))
  in
  if validate then Validate.validate ~file:path f;
  f

let to_text (f : hli_file) : string =
  Fmt.str "@[<v>%a@]@." Fmt.(list ~sep:cut pp_entry) f.entries
