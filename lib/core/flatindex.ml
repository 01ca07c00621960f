(** HLIX — the HLI query engine: one unit's entry laid out as a flat,
    position-independent, mmap-able image.

    {!build} turns an [hli_entry] into an image that holds everything
    the back end's three pair queries consult: per-item (region, class)
    chains with the class kind and alias slot precomputed per element,
    per-region alias bit matrices, ancestor chains and callrefmod
    tables, with each item's line, access type and innermost region in
    its record.  {!Query} answers through it in process, adding its
    memos and counters; hlid {!seal}s the same image with the source
    container's content hash and a CRC and publishes it for co-located
    clients to map ({!Hli_server.Shm}).  All cross-references are byte
    offsets from the image base (no pointers), so the same bytes answer
    at any mapping address in any process.

    Layout (all fields u32 LE unless noted; [NONE] = 0xffffffff):

    {v
    header (76 bytes)
       0  magic "HLIX"
       4  version (= 5)
       8  generation (u64; seqlock word, NOT covered by the CRC)
      16  body CRC32 over bytes [20, total_len) (zero until sealed)
      20  total_len (bytes used, header included)
      24  content hash (16 bytes; MD5 of the source HLI container;
          zero until sealed)
      40  n_slots (item table size, a power of two)   44 n_regions
      48..76  section offsets: items, chain pool, regions, crm
              records, class-id pool, alias cells, ups pool
    items     n_slots x 24, open addressing on the id (linear probing
              from [slot_of id]): id (NONE = empty slot), line (NONE if
              absent from the line table), access type (0 load / 1
              store / 2 call / NONE), region index of the line's
              innermost region (NONE), chain_off, chain_len
    chain     elements x 20: region index, rid, cid, kind (0 definitely
              / 1 maybe / 2 absent), alias slot of cid in the region's
              cells (NONE if no alias entry lists it)
    regions   n_regions x 32: rid, first_line, last_line, crm_off,
              crm_cnt, ups_off, ups_cnt, alias_off — one per id, the
              last listed wins, in entry order
    crm       records x 28: key_kind (0 call item / 1 sub-region),
              key_val (item id, or region index; NONE if the
              sub-region id is unknown), refmod_all, ref_off, ref_cnt,
              mod_off, mod_cnt — entry order (the first covering entry
              wins)
    cls       sorted u32 class-id runs (binary-search membership for
              the crm REF/MOD sets)
    alias     per region: width (at most 0xffff), then a width x width
              bit matrix, row-major, bit k in byte k / 8 at weight
              2^(k mod 8) — set when an alias entry lists both classes —
              padded to 4 bytes
    ups       u32 region indices (self first, root last)
    v}

    One walk answers the equiv query: two hashed item lookups, the two
    chain scans and at most one bit load, with no allocation.

    Readers treat the bytes as untrusted at all times: every load is
    bounds-checked against the image and absurd counts raise {!Torn}
    (never a crash, never an unbounded loop), so a segment being
    rewritten in place under the seqlock protocol can only produce a
    retry, not a wrong answer — callers re-check the generation word
    after computing and retry/fall back on a mismatch.  {!validate}
    checks a sealed image's magic/version/length/CRC/hash and the
    geometry of every section with precise E063x diagnostics:

    - E0630 bad magic            - E0631 unknown version
    - E0632 truncated segment    - E0633 body CRC mismatch
    - E0634 content-hash mismatch- E0635 malformed section geometry *)

module S = Serialize
open Tables

type seg = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Result of the equivalent-access query, mirroring the paper's
    [HLI_EquivAccType]. *)
type equiv_result =
  | Equiv_none  (** proven distinct: never the same location *)
  | Equiv_same of equiv_kind  (** same class (definitely or maybe) *)
  | Equiv_alias  (** distinct classes listed as aliased *)
  | Equiv_unknown  (** at least one item is not represented in the HLI *)

(** Result of the call REF/MOD query, mirroring [HLI_GetCallAcc]. *)
type call_acc_result =
  | Call_none
  | Call_ref
  | Call_mod
  | Call_refmod
  | Call_unknown

exception Torn

let magic = "HLIX"
let hlix_version = 5
let header_size = 76
let none = 0xffffffff
let max_width = 0xffff

(* header field offsets *)
let o_gen = 8
let o_crc = 16
let o_len = 20
let o_hash = 24
let o_nslots = 40
let o_nregions = 44
let o_items = 48
let o_chain = 52
let o_regions = 56
let o_crm = 60
let o_cls = 64
let o_alias = 68
let o_ups = 72

(* record sizes *)
let item_size = 24
let chain_size = 20
let region_size = 32
let crm_size = 28

(* home slot of [id] in a table of [mask + 1] slots: a multiplicative
   hash, so a dense run of ids spreads instead of forming one cluster
   that every absent id would have to probe through *)
let slot_of id mask = ((id * 0x9E3779B1) lsr 16) land mask

(* ------------------------------------------------------------------ *)
(* Raw loads (bounds-checked: garbage raises Torn, never a crash)      *)
(* ------------------------------------------------------------------ *)

let dim (seg : seg) = Bigarray.Array1.dim seg

let u8 (seg : seg) off =
  if off < 0 || off >= dim seg then raise Torn;
  Bigarray.Array1.unsafe_get seg off

(* one unaligned load per field: the compiler inlines these primitives
   on any byte-element bigarray, not only [char] ones *)
external get32 : seg -> int -> int32 = "%caml_bigstring_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let u32 (seg : seg) off =
  if off < 0 || off + 4 > Bigarray.Array1.dim seg then raise Torn;
  let v = get32 seg off in
  Int32.to_int (if big_endian () then bswap32 v else v) land 0xffffffff

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

(* Int- and pair-keyed tables: the generic [Hashtbl] hashes and compares
   every key through the polymorphic runtime primitives, a measurable
   cost per build and per memo lookup.  A multiplicative mix is enough;
   bucket selection uses the low bits of the hash, and multiplication
   only propagates entropy upward, so the high half of the key (the
   first id of a key {!Query} packs from two) is folded down first. *)
let mix x =
  let x = x lxor (x lsr 21) in
  x * 0x9E3779B1 land max_int

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end)

module Ptbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = mix ((a * 0x9E3779B1) + b)
end)

external set32 : seg -> int -> int32 -> unit = "%caml_bigstring_set32"

let pu32 (seg : seg) off v =
  if v < 0 || v > none then
    invalid_arg (Printf.sprintf "Flatindex.build: %d does not fit a u32 field" v);
  let v = Int32.of_int v in
  set32 seg off (if big_endian () then bswap32 v else v)


(** The image of [entry] (generation 0, unsealed) and the item ids
    the entry lists more than once — twice in the line table, or as a
    member of two equivalence classes — sorted, each once.  The image
    keeps the last occurrence. *)
let build (entry : hli_entry) : seg * int list =
  let dups = ref [] in
  (* regions: one per id, the last listed wins, kept in entry order *)
  let by_id = Itbl.create 16 in
  List.iter (fun r -> Itbl.replace by_id r.region_id r) entry.regions;
  let regions =
    Array.of_list
      (List.filter (fun r -> Itbl.find by_id r.region_id == r) entry.regions)
  in
  let n_regions = Array.length regions in
  let ridx = Itbl.create 16 in
  Array.iteri (fun i r -> Itbl.replace ridx r.region_id i) regions;
  let ridx_or_none rid = Option.value ~default:none (Itbl.find_opt ridx rid) in
  (* innermost class of each item (last wins) and the subclass links *)
  let direct = Itbl.create 64 and class_up = Ptbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          List.iter
            (function
              | Member_item id ->
                  if Itbl.mem direct id then dups := id :: !dups;
                  Itbl.replace direct id (r.region_id, c.class_id)
              | Member_subclass { sub_region; cls } ->
                  Ptbl.replace class_up (sub_region, cls) (r.region_id, c.class_id))
            c.members)
        r.eq_classes)
    entry.regions;
  (* line, access type and the line's innermost region (last wins);
     the first region in entry order wins a span-length tie *)
  let innermost line =
    List.fold_left
      (fun best r ->
        if line >= r.first_line && line <= r.last_line then
          match best with
          | Some b when r.last_line - r.first_line < b.last_line - b.first_line -> Some r
          | None -> Some r
          | _ -> best
        else best)
      None entry.regions
  in
  let lines = Itbl.create 64 in
  List.iter
    (fun le ->
      if le.items <> [] then begin
        let r0 =
          match innermost le.line_no with
          | Some r -> Itbl.find ridx r.region_id
          | None -> none
        in
        List.iter
          (fun it ->
            if Itbl.mem lines it.item_id then dups := it.item_id :: !dups;
            Itbl.replace lines it.item_id (le.line_no, it.acc, r0))
          le.items
      end)
    entry.line_table;
  (* each item's (region, class) chain, innermost first; capped at the
     number of subclass links so a cyclic relation terminates *)
  let max_chain = Ptbl.length class_up + 1 in
  let rec walk acc n rc =
    let acc = rc :: acc in
    if n >= max_chain then List.rev acc
    else
      match Ptbl.find_opt class_up rc with
      | Some up -> walk acc (n + 1) up
      | None -> List.rev acc
  in
  let items = ref [] and chain_total = ref 0 in
  let add id =
    let chain = match Itbl.find_opt direct id with Some rc -> walk [] 1 rc | None -> [] in
    chain_total := !chain_total + List.length chain;
    items := (id, chain) :: !items
  in
  Itbl.iter (fun id _ -> add id) direct;
  Itbl.iter (fun id _ -> if not (Itbl.mem direct id) then add id) lines;
  (* (region, class) -> kind: the first class with the id in the
     region wins *)
  let kinds = Ptbl.create 64 in
  Array.iter
    (fun r ->
      List.iter
        (fun c ->
          if not (Ptbl.mem kinds (r.region_id, c.class_id)) then
            Ptbl.replace kinds (r.region_id, c.class_id) c.kind)
        r.eq_classes)
    regions;
  (* per region: class id -> slot in its alias cells *)
  let slots =
    Array.map
      (fun r ->
        let h = Itbl.create 8 in
        List.iter
          (fun ae ->
            List.iter
              (fun c -> if not (Itbl.mem h c) then Itbl.replace h c (Itbl.length h))
              ae.alias_classes)
          r.aliases;
        h)
      regions
  in
  (* ancestor chains as region indices, capped against parent cycles *)
  let ups =
    Array.map
      (fun r ->
        let rec up acc n r =
          let acc = Itbl.find ridx r.region_id :: acc in
          match r.parent with
          | Some p when n < n_regions -> (
              match Itbl.find_opt by_id p with
              | Some pr -> up acc (n + 1) pr
              | None -> List.rev acc)
          | _ -> List.rev acc
        in
        up [] 1 r)
      regions
  in
  let n_items = List.length !items in
  let rec pow2 k = if k >= 2 * n_items then k else pow2 (2 * k) in
  let n_slots = pow2 1 in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 regions in
  let crm_total = sum (fun r -> List.length r.callrefmods) in
  let cls_total =
    sum (fun r ->
        List.fold_left
          (fun a e -> a + List.length e.ref_classes + List.length e.mod_classes)
          0 r.callrefmods)
  in
  let cells_bytes w = (((w * w) + 7) / 8 + 3) land lnot 3 in
  let alias_bytes = Array.fold_left (fun a h -> a + 4 + cells_bytes (Itbl.length h)) 0 slots in
  let ups_total = Array.fold_left (fun a u -> a + List.length u) 0 ups in
  let off_items = header_size in
  let off_chain = off_items + (item_size * n_slots) in
  let off_regions = off_chain + (chain_size * !chain_total) in
  let off_crm = off_regions + (region_size * n_regions) in
  let off_cls = off_crm + (crm_size * crm_total) in
  let off_alias = off_cls + (4 * cls_total) in
  let off_ups = off_alias + alias_bytes in
  let total = off_ups + (4 * ups_total) in
  let seg = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout total in
  Bigarray.Array1.fill seg 0;
  String.iteri (fun i c -> seg.{i} <- Char.code c) magic;
  pu32 seg 4 hlix_version;
  pu32 seg o_len total;
  pu32 seg o_nslots n_slots;
  pu32 seg o_nregions n_regions;
  List.iteri
    (fun i off -> pu32 seg (o_items + (4 * i)) off)
    [ off_items; off_chain; off_regions; off_crm; off_cls; off_alias; off_ups ];
  (* items + chain pool *)
  for s = 0 to n_slots - 1 do
    pu32 seg (off_items + (item_size * s)) none
  done;
  let chain_off = ref off_chain in
  List.iter
    (fun (id, chain) ->
      let s = ref (slot_of id (n_slots - 1)) in
      while u32 seg (off_items + (item_size * !s)) <> none do
        s := (!s + 1) land (n_slots - 1)
      done;
      let ioff = off_items + (item_size * !s) in
      if id = none then invalid_arg "Flatindex.build: item id 0xffffffff";
      pu32 seg ioff id;
      (match Itbl.find_opt lines id with
      | Some (line, acc, r0) ->
          pu32 seg (ioff + 4) line;
          pu32 seg (ioff + 8) (match acc with Acc_load -> 0 | Acc_store -> 1 | Acc_call -> 2);
          pu32 seg (ioff + 12) r0
      | None ->
          pu32 seg (ioff + 4) none;
          pu32 seg (ioff + 8) none;
          pu32 seg (ioff + 12) none);
      pu32 seg (ioff + 16) !chain_off;
      pu32 seg (ioff + 20) (List.length chain);
      List.iter
        (fun (rid, cid) ->
          let e = !chain_off and ri = ridx_or_none rid in
          pu32 seg e ri;
          pu32 seg (e + 4) rid;
          pu32 seg (e + 8) cid;
          pu32 seg (e + 12)
            (match Ptbl.find_opt kinds (rid, cid) with
            | Some Definitely -> 0
            | Some Maybe -> 1
            | None -> 2);
          pu32 seg (e + 16)
            (if ri = none then none
             else Option.value ~default:none (Itbl.find_opt slots.(ri) cid));
          chain_off := e + chain_size)
        chain)
    !items;
  assert (!chain_off = off_regions);
  (* regions + crm + cls + alias + ups *)
  let crm_off = ref off_crm
  and cls_off = ref off_cls
  and alias_off = ref off_alias
  and ups_off = ref off_ups in
  Array.iteri
    (fun i r ->
      let roff = off_regions + (region_size * i) in
      pu32 seg roff r.region_id;
      pu32 seg (roff + 4) r.first_line;
      pu32 seg (roff + 8) r.last_line;
      pu32 seg (roff + 12) !crm_off;
      pu32 seg (roff + 16) (List.length r.callrefmods);
      List.iter
        (fun e ->
          let eoff = !crm_off in
          (match e.call_key with
          | Key_call_item id ->
              pu32 seg eoff 0;
              pu32 seg (eoff + 4) id
          | Key_sub_region sr ->
              pu32 seg eoff 1;
              pu32 seg (eoff + 4) (ridx_or_none sr));
          pu32 seg (eoff + 8) (if e.refmod_all then 1 else 0);
          let put_cls l =
            let off0 = !cls_off in
            List.iter
              (fun c ->
                pu32 seg !cls_off c;
                cls_off := !cls_off + 4)
              (List.sort compare l);
            (off0, List.length l)
          in
          let ro, rc = put_cls e.ref_classes in
          let mo, mc = put_cls e.mod_classes in
          pu32 seg (eoff + 12) ro;
          pu32 seg (eoff + 16) rc;
          pu32 seg (eoff + 20) mo;
          pu32 seg (eoff + 24) mc;
          crm_off := eoff + crm_size)
        r.callrefmods;
      pu32 seg (roff + 20) !ups_off;
      pu32 seg (roff + 24) (List.length ups.(i));
      List.iter
        (fun u ->
          pu32 seg !ups_off u;
          ups_off := !ups_off + 4)
        ups.(i);
      (* the bit of every pair of classes an entry lists (the image
         starts zeroed) *)
      let aoff = !alias_off and h = slots.(i) in
      let w = Itbl.length h in
      if w > max_width then invalid_arg (Printf.sprintf "Flatindex.build: alias width %d" w);
      pu32 seg (roff + 28) aoff;
      pu32 seg aoff w;
      List.iter
        (fun ae ->
          let ss = List.map (Itbl.find h) ae.alias_classes in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  let k = (x * w) + y in
                  let c = aoff + 4 + (k lsr 3) in
                  seg.{c} <- seg.{c} lor (1 lsl (k land 7)))
                ss)
            ss)
        r.aliases;
      alias_off := aoff + 4 + cells_bytes w)
    regions;
  assert (!crm_off = off_cls);
  assert (!cls_off = off_alias);
  assert (!alias_off = off_ups);
  assert (!ups_off = total);
  (seg, List.sort_uniq compare !dups)

(* ------------------------------------------------------------------ *)
(* Header accessors and sealing                                        *)
(* ------------------------------------------------------------------ *)

(** Seqlock generation word.  Even = stable, odd = rebuild in
    progress.  Publishers go odd before rewriting the body and even
    (+2) after; readers sample it before and after a lookup. *)
let generation (seg : seg) =
  let g = u32 seg o_gen and h = u32 seg (o_gen + 4) in
  g lor (h lsl 32)

let set_generation (seg : seg) g =
  if dim seg < o_gen + 8 then raise Torn;
  for i = 0 to 7 do
    Bigarray.Array1.unsafe_set seg (o_gen + i) ((g lsr (i * 8)) land 0xff)
  done

let total_len (seg : seg) = u32 seg o_len

let content_hash (seg : seg) =
  String.init 16 (fun i -> Char.chr (u8 seg (o_hash + i)))

(* CRC32 of [o_len, len): everything except magic/version, the
   seqlock word and the CRC field itself *)
let body_crc (seg : seg) len =
  if len < o_len || len > dim seg then raise Torn;
  S.crc32 (String.init (len - o_len) (fun i -> Char.unsafe_chr seg.{o_len + i})) 0 (len - o_len)

(** Stamp [content_hash] (the 16-byte digest of the source HLI
    container) and the body CRC into the image at the start of [seg]
    — a publication step: in-process images stay unsealed. *)
let seal ~content_hash (seg : seg) =
  if String.length content_hash <> 16 then
    invalid_arg "Flatindex.seal: content_hash must be 16 bytes";
  String.iteri (fun i c -> seg.{o_hash + i} <- Char.code c) content_hash;
  pu32 seg o_crc (body_crc seg (total_len seg))

(** Wrap HLIX bytes as a segment without going through a file — tests
    and in-process probes. *)
let seg_of_bytes (b : Bytes.t) : seg =
  let n = Bytes.length b in
  let seg =
    Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n
  in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set seg i (Char.code (Bytes.unsafe_get b i))
  done;
  seg

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(** Full check of a sealed segment: magic (E0630), version (E0631),
    length (E0632), body CRC over [20, total_len) (E0633), content hash
    against [expect_hash] (E0634), and the geometry of every section
    (E0635): monotone section offsets, section sizes that agree with
    the header counts and record sizes, a power-of-two item table, and
    every item's chain and every region's crm records, ancestors and
    alias cells inside their sections.  The generation word is
    deliberately outside the CRC; call this once per mapping and once
    per observed generation change, not per query. *)
let validate ~expect_hash (seg : seg) =
  let n = dim seg in
  if n < header_size then
    S.corrupt ~code:"E0632" "HLIX segment truncated: %d bytes, header needs %d"
      n header_size;
  for i = 0 to 3 do
    if u8 seg i <> Char.code magic.[i] then
      S.corrupt ~at:i ~code:"E0630" "bad HLIX magic"
  done;
  let v = u32 seg 4 in
  if v <> hlix_version then
    S.corrupt ~at:4 ~code:"E0631" "unknown HLIX version %d (expected %d)" v
      hlix_version;
  let len = u32 seg o_len in
  if len < header_size || len > n then
    S.corrupt ~at:o_len ~code:"E0632"
      "HLIX total_len %d outside [%d, %d] (truncated segment?)" len header_size
      n;
  let crc = body_crc seg len in
  if crc <> u32 seg o_crc then
    S.corrupt ~at:o_crc ~code:"E0633"
      "HLIX body CRC mismatch: stored %08x, computed %08x" (u32 seg o_crc) crc;
  if content_hash seg <> expect_hash then
    S.corrupt ~at:o_hash ~code:"E0634"
      "HLIX content hash does not match the opened HLI container";
  let bad fmt = S.corrupt ~code:"E0635" ("HLIX " ^^ fmt) in
  let sec = Array.init 8 (fun i -> if i = 7 then len else u32 seg (o_items + (4 * i))) in
  for i = 0 to 6 do
    if sec.(i) < (if i = 0 then header_size else sec.(i - 1)) || sec.(i) > sec.(i + 1) then
      bad "section offsets not monotone within %d" len
  done;
  let size i = sec.(i + 1) - sec.(i) in
  let n_slots = u32 seg o_nslots and n_regions = u32 seg o_nregions in
  if n_slots = 0 || n_slots land (n_slots - 1) <> 0 || size 0 <> item_size * n_slots then
    bad "item table is not %d power-of-two slots" n_slots;
  if size 2 <> region_size * n_regions then
    bad "region section size disagrees with n_regions";
  List.iter
    (fun (i, rec_size, what) ->
      if size i mod rec_size <> 0 then bad "%s section is not whole records" what)
    [ (1, chain_size, "chain"); (3, crm_size, "crm"); (4, 4, "class-id"); (6, 4, "ups") ];
  (* [off, off + cnt * rec_size) must lie inside section [i] *)
  let inside i off cnt rec_size what =
    if off < sec.(i) || cnt > size i || off + (cnt * rec_size) > sec.(i + 1) then
      bad "%s outside its section" what
  in
  for s = 0 to n_slots - 1 do
    let ioff = sec.(0) + (item_size * s) in
    if u32 seg ioff <> none then
      inside 1 (u32 seg (ioff + 16)) (u32 seg (ioff + 20)) chain_size "item chain"
  done;
  for r = 0 to n_regions - 1 do
    let roff = sec.(2) + (region_size * r) in
    inside 3 (u32 seg (roff + 12)) (u32 seg (roff + 16)) crm_size "crm records";
    inside 6 (u32 seg (roff + 20)) (u32 seg (roff + 24)) 4 "ancestor chain";
    let aoff = u32 seg (roff + 28) in
    inside 5 aoff 1 4 "alias width";
    let w = u32 seg aoff in
    if w > max_width then bad "alias width %d" w;
    inside 5 (aoff + 4) (((w * w) + 7) / 8) 1 "alias bits"
  done

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

(* cap any count read from the mapping: a table can't hold more
   records than the mapping has bytes, so anything bigger is torn *)
let capped seg count rec_size =
  if count < 0 || count * rec_size > dim seg then raise Torn;
  count

(* byte offset of [id]'s item record, -1 when absent.  The probe is
   bounded by the slot count, so a torn table cannot loop. *)
let find_item (seg : seg) id =
  if id < 0 || id >= none then -1
  else begin
    let n = capped seg (u32 seg o_nslots) item_size in
    let base = u32 seg o_items and mask = n - 1 in
    let s = ref (slot_of id mask) and k = ref 0 and res = ref (-2) in
    while !res = -2 do
      if !k >= n then res := -1
      else begin
        let off = base + (item_size * !s) in
        let v = u32 seg off in
        if v = id then res := off
        else if v = none then res := -1
        else begin
          s := (!s + 1) land mask;
          incr k
        end
      end
    done;
    !res
  end

(* membership probe of a sorted u32 run *)
let cls_mem (seg : seg) off cnt v =
  let cnt = capped seg cnt 4 in
  let lo = ref 0 and hi = ref cnt and found = ref false in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = u32 seg (off + (4 * mid)) in
    if x = v then begin
      found := true;
      lo := !hi
    end
    else if x < v then lo := mid + 1
    else hi := mid
  done;
  !found

(* is bit (sa, sb) of region [ri]'s alias matrix set? *)
let aliased (seg : seg) ri sa sb =
  let aoff = u32 seg (u32 seg o_regions + (region_size * capped seg ri region_size) + 28) in
  let w = u32 seg aoff in
  sa < w && sb < w
  &&
  let k = (sa * w) + sb in
  u8 seg (aoff + 4 + (k lsr 3)) land (1 lsl (k land 7)) <> 0

(** Do two items possibly access the same memory location {e within one
    iteration} of every loop enclosing both?  The innermost region
    present in both items' chains decides, scanning a's chain outward —
    the chains are region paths, so this is the lowest common region of
    the two items.  Same class there answers by its kind, distinct
    classes by their alias bit.  Raises {!Torn} on any
    out-of-bounds load (segment being rewritten); never allocates. *)
let get_equiv_acc (seg : seg) item_a item_b =
  let ia = find_item seg item_a and ib = find_item seg item_b in
  if ia < 0 || ib < 0 then Equiv_unknown
  else begin
    let ca_off = u32 seg (ia + 16)
    and ca_len = capped seg (u32 seg (ia + 20)) chain_size
    and cb_off = u32 seg (ib + 16)
    and cb_len = capped seg (u32 seg (ib + 20)) chain_size in
    let res = ref Equiv_unknown and i = ref 0 in
    while !i < ca_len do
      let ea = ca_off + (chain_size * !i) in
      let rid = u32 seg (ea + 4) in
      let j = ref 0 and eb = ref (-1) in
      while !eb < 0 && !j < cb_len do
        let e = cb_off + (chain_size * !j) in
        if u32 seg (e + 4) = rid then eb := e;
        incr j
      done;
      if !eb < 0 then incr i
      else begin
        i := ca_len;
        let eb = !eb in
        res :=
          if u32 seg (ea + 8) = u32 seg (eb + 8) then (
            match u32 seg (ea + 12) with
            | 0 -> Equiv_same Definitely
            | 1 -> Equiv_same Maybe
            | _ -> Equiv_unknown)
          else
            let ri = u32 seg ea in
            if ri = none then Equiv_unknown
            else
              let sa = u32 seg (ea + 16) and sb = u32 seg (eb + 16) in
              if sa <> none && sb <> none && aliased seg ri sa sb then Equiv_alias
              else Equiv_none
      end
    done;
    !res
  end

(* the class of the first chain element of the item record at [ioff]
   whose region is [rid], or -1 *)
let class_in (seg : seg) ioff rid =
  let c_off = u32 seg (ioff + 16)
  and c_len = capped seg (u32 seg (ioff + 20)) chain_size in
  let i = ref 0 and res = ref (-1) in
  while !res < 0 && !i < c_len do
    let e = c_off + (chain_size * !i) in
    if u32 seg (e + 4) = rid then res := u32 seg (e + 8);
    incr i
  done;
  !res

(** May the call item [call] reference or modify the location of memory
    item [mem]?  Resolves the call's line to its innermost region, then
    walks that region's ancestors for the first callrefmod entry
    covering the call (either as an immediate call item or via a
    sub-region entry). *)
let get_call_acc (seg : seg) ~call ~mem =
  let ic = find_item seg call in
  if ic < 0 then Call_unknown
  else
    let call_line = u32 seg (ic + 4) and r0 = u32 seg (ic + 12) in
    if call_line = none || r0 = none then Call_unknown
    else begin
      let im = find_item seg mem in
      let rbase = u32 seg o_regions in
      let r0off = rbase + (region_size * capped seg r0 region_size) in
      let ups_off = u32 seg (r0off + 20)
      and ups_cnt = capped seg (u32 seg (r0off + 24)) 4 in
      let result = ref Call_unknown and i = ref 0 in
      while !i < ups_cnt do
        let roff = rbase + (region_size * capped seg (u32 seg (ups_off + (4 * !i))) region_size) in
        let crm_off = u32 seg (roff + 12)
        and crm_cnt = capped seg (u32 seg (roff + 16)) crm_size in
        (* first covering entry, in table order *)
        let e = ref (-1) and j = ref 0 in
        while !e < 0 && !j < crm_cnt do
          let eoff = crm_off + (crm_size * !j) in
          let covers =
            match u32 seg eoff with
            | 0 -> u32 seg (eoff + 4) = call
            | _ ->
                let sr = u32 seg (eoff + 4) in
                sr <> none
                &&
                let soff = rbase + (region_size * capped seg sr region_size) in
                call_line >= u32 seg (soff + 4) && call_line <= u32 seg (soff + 8)
          in
          if covers then e := eoff;
          incr j
        done;
        incr i;
        if !e >= 0 then begin
          let eoff = !e in
          if u32 seg (eoff + 8) <> 0 then begin
            result := Call_refmod;
            i := ups_cnt
          end
          else
            (* a covering entry decides only if it represents [mem] *)
            let mc = if im < 0 then -1 else class_in seg im (u32 seg roff) in
            if mc >= 0 then begin
              i := ups_cnt;
              result :=
                match
                  ( cls_mem seg (u32 seg (eoff + 12)) (u32 seg (eoff + 16)) mc,
                    cls_mem seg (u32 seg (eoff + 20)) (u32 seg (eoff + 24)) mc )
                with
                | false, false -> Call_none
                | true, false -> Call_ref
                | false, true -> Call_mod
                | true, true -> Call_refmod
            end
        end
      done;
      !result
    end

(* ------------------------------------------------------------------ *)
(* Item lookups for maintenance                                        *)
(* ------------------------------------------------------------------ *)

let item_field seg item field =
  let ioff = find_item seg item in
  if ioff < 0 then none else u32 seg (ioff + field)

let line_of_item seg item =
  match item_field seg item 4 with l when l = none -> None | l -> Some l

let access_type seg item =
  match item_field seg item 8 with
  | 0 -> Some Acc_load
  | 1 -> Some Acc_store
  | 2 -> Some Acc_call
  | _ -> None

(** Innermost [(region, class)] directly containing [item]. *)
let direct_class seg item =
  let ioff = find_item seg item in
  if ioff < 0 || u32 seg (ioff + 20) = 0 then None
  else
    let e = u32 seg (ioff + 16) in
    Some (u32 seg (e + 4), u32 seg (e + 8))

(** The class representing [item] in region [rid]: the first entry
    with that region along the item's chain. *)
let class_at seg ~rid item =
  let ioff = find_item seg item in
  if ioff < 0 then None
  else match class_in seg ioff rid with -1 -> None | c -> Some c
