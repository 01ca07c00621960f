(** HLIX — a position-independent, mmap-able flat image of a query
    {!Query.index}.

    One segment holds everything {!Query.get_equiv_acc} and
    {!Query.get_call_acc} consult at query time — the two queries a
    co-located back end answers off the mapping: per-item (region,
    class) chains with the class kind and alias slot precomputed per
    element, per-region alias bitsets, ancestor chains, callrefmod
    tables and the line -> innermost-region map — as fixed-width
    little-endian records behind a fixed header.  All
    cross-references are byte offsets from the segment base (no
    pointers), so the same bytes answer queries at any mapping
    address in any process.

    Layout (all fields u32 LE unless noted; [NONE] = 0xffffffff):

    {v
    header (96 bytes)
       0  magic "HLIX"
       4  version (= 3)
       8  generation (u64; seqlock word, NOT covered by the CRC)
      16  body CRC32 over bytes [20, total_len)
      20  total_len (bytes used, header included)
      24  content hash (16 bytes; MD5 of the source HLI container)
      40  n_items   44 n_regions   48 n_lines
      52..84  section offsets: items, chain pool, regions, crm
              records, class-id pool, alias pool, ups pool, lines
      84..96  reserved (zero)
    items     n_items x 16: id, line (NONE if absent), chain_off,
              chain_len — sorted by id (binary search)
    chain     elements x 20: region_idx (into the region table),
              rid, cid, kind (0 definitely / 1 maybe / 2 absent),
              alias slot of cid in rid's bitset (NONE if unmapped)
    regions   n_regions x 32: rid, first_line (i32), last_line (i32),
              crm_off, crm_cnt, ups_off, ups_cnt, alias_off — sorted
              by rid, deduplicated last-wins like [Query.region_by_id]
    crm       records x 28: key_kind (0 call item / 1 sub-region),
              key_val (item id, or region index; NONE if the
              sub-region id is unknown), refmod_all, ref_off,
              ref_cnt, mod_off, mod_cnt — entry order preserved
              (first covering entry wins, like the engine)
    cls       sorted u32 class-id runs (binary-search membership for
              the crm REF/MOD sets)
    alias     per region: width, then the width*width bit matrix
              verbatim from [Query.alias_bits] (padded to 4 bytes)
    ups       u32 region-table indices (self first, root last)
    lines     n_lines x 8: line, region index — sorted by line
    v}

    The precomputed kind and slot per chain element make the hot
    paths allocation-free: an equiv answer needs only the two chain
    scans and one bit probe, with no hash lookups.

    Readers treat the mapping as untrusted at all times: every load
    is bounds-checked against the mapping and absurd counts raise
    {!Torn} (never a crash, never an unbounded loop), so a segment
    being rewritten in place under the seqlock protocol can only
    produce a retry, not a wrong answer — callers re-check the
    generation word after computing and retry/fall back on a
    mismatch.  {!validate} checks magic/version/length/CRC/hash and
    section geometry with precise E063x diagnostics:

    - E0630 bad magic            - E0631 unknown version
    - E0632 truncated segment    - E0633 body CRC mismatch
    - E0634 content-hash mismatch- E0635 malformed section geometry *)

module S = Serialize
module Q = Query
open Tables

type seg = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Torn

let magic = "HLIX"
let hlix_version = 3
let header_size = 96
let none = 0xffffffff
let mask32 = 0xffffffff

(* header field offsets *)
let o_gen = 8
let o_crc = 16
let o_len = 20
let o_hash = 24
let o_nitems = 40
let o_nregions = 44
let o_nlines = 48
let o_items = 52
let o_chain = 56
let o_regions = 60
let o_crm = 64
let o_cls = 68
let o_alias = 72
let o_ups = 76
let o_lines = 80

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let pu32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(** Serialize [idx] into HLIX bytes (generation 0).  [content_hash]
    is the 16-byte digest of the source HLI container the index was
    built from; readers use it to pair a segment with the unit they
    opened. *)
let build ~content_hash (idx : Q.index) : Bytes.t =
  if String.length content_hash <> 16 then
    invalid_arg "Flatindex.build: content_hash must be 16 bytes";
  (* canonical region set: one row per id, last occurrence wins,
     exactly the engine's [region_by_id] *)
  let regions =
    Hashtbl.fold (fun _ r acc -> r :: acc) idx.Q.region_by_id []
    |> List.sort (fun a b -> compare a.region_id b.region_id)
    |> Array.of_list
  in
  let n_regions = Array.length regions in
  let ridx = Hashtbl.create (max 16 (2 * n_regions)) in
  Array.iteri (fun i r -> Hashtbl.replace ridx r.region_id i) regions;
  (* items: union of the chain and line keysets (they differ: items
     can appear in classes but not the line table and vice versa) *)
  let iset = Hashtbl.create 256 in
  Hashtbl.iter (fun id _ -> Hashtbl.replace iset id ()) idx.Q.chain_of_item;
  Hashtbl.iter (fun id _ -> Hashtbl.replace iset id ()) idx.Q.line_of_item;
  let items =
    Hashtbl.fold (fun id () acc -> id :: acc) iset []
    |> List.sort compare |> Array.of_list
  in
  let n_items = Array.length items in
  let chains =
    Array.map
      (fun id ->
        match Hashtbl.find_opt idx.Q.chain_of_item id with
        | Some c -> c
        | None -> [||])
      items
  in
  let chain_total = Array.fold_left (fun a c -> a + Array.length c) 0 chains in
  let upss =
    Array.map
      (fun r ->
        match Hashtbl.find_opt idx.Q.regions_up_of r.region_id with
        | Some a -> a
        | None -> [||])
      regions
  in
  let ups_total = Array.fold_left (fun a u -> a + Array.length u) 0 upss in
  let crm_total =
    Array.fold_left (fun a r -> a + List.length r.callrefmods) 0 regions
  in
  let cls_total =
    Array.fold_left
      (fun a r ->
        List.fold_left
          (fun a e -> a + List.length e.ref_classes + List.length e.mod_classes)
          a r.callrefmods)
      0 regions
  in
  let pad4 n = (n + 3) land lnot 3 in
  let empty_alias =
    { Q.ab_slot = Hashtbl.create 1; ab_width = 0; ab_bits = Bytes.create 0 }
  in
  let aliases =
    Array.map
      (fun r ->
        match Hashtbl.find_opt idx.Q.alias_of_region r.region_id with
        | Some ab -> ab
        | None -> empty_alias)
      regions
  in
  let alias_bytes =
    Array.fold_left
      (fun a ab -> a + 4 + pad4 (Bytes.length ab.Q.ab_bits))
      0 aliases
  in
  let lines =
    Hashtbl.fold
      (fun line r acc -> (line, Hashtbl.find ridx r.region_id) :: acc)
      idx.Q.innermost_at_line []
    |> List.sort compare |> Array.of_list
  in
  let n_lines = Array.length lines in
  (* section offsets *)
  let off_items = header_size in
  let off_chain = off_items + (16 * n_items) in
  let off_regions = off_chain + (20 * chain_total) in
  let off_crm = off_regions + (32 * n_regions) in
  let off_cls = off_crm + (28 * crm_total) in
  let off_alias = off_cls + (4 * cls_total) in
  let off_ups = off_alias + alias_bytes in
  let off_lines = off_ups + (4 * ups_total) in
  let total = off_lines + (8 * n_lines) in
  let b = Bytes.make total '\000' in
  Bytes.blit_string magic 0 b 0 4;
  pu32 b 4 hlix_version;
  (* generation stays 0: the publisher stamps it *)
  pu32 b o_len total;
  Bytes.blit_string content_hash 0 b o_hash 16;
  pu32 b o_nitems n_items;
  pu32 b o_nregions n_regions;
  pu32 b o_nlines n_lines;
  pu32 b o_items off_items;
  pu32 b o_chain off_chain;
  pu32 b o_regions off_regions;
  pu32 b o_crm off_crm;
  pu32 b o_cls off_cls;
  pu32 b o_alias off_alias;
  pu32 b o_ups off_ups;
  pu32 b o_lines off_lines;
  (* items + chain pool *)
  let chain_off = ref off_chain in
  Array.iteri
    (fun i id ->
      let c = chains.(i) in
      let ioff = off_items + (16 * i) in
      pu32 b ioff id;
      pu32 b (ioff + 4)
        (match Hashtbl.find_opt idx.Q.line_of_item id with
        | Some l -> l land mask32
        | None -> none);
      pu32 b (ioff + 8) !chain_off;
      pu32 b (ioff + 12) (Array.length c);
      Array.iter
        (fun (rid, cid) ->
          let e = !chain_off in
          pu32 b e
            (match Hashtbl.find_opt ridx rid with Some i -> i | None -> none);
          pu32 b (e + 4) rid;
          pu32 b (e + 8) cid;
          pu32 b (e + 12)
            (match Hashtbl.find_opt idx.Q.kind_of_class (rid, cid) with
            | Some Definitely -> 0
            | Some Maybe -> 1
            | None -> 2);
          pu32 b (e + 16)
            (match Hashtbl.find_opt idx.Q.alias_of_region rid with
            | Some ab -> (
                match Hashtbl.find_opt ab.Q.ab_slot cid with
                | Some s -> s
                | None -> none)
            | None -> none);
          chain_off := e + 20)
        c)
    items;
  assert (!chain_off = off_regions);
  (* regions + crm + cls + alias + ups *)
  let crm_off = ref off_crm
  and cls_off = ref off_cls
  and alias_off = ref off_alias
  and ups_off = ref off_ups in
  Array.iteri
    (fun i r ->
      let roff = off_regions + (32 * i) in
      pu32 b roff r.region_id;
      pu32 b (roff + 4) (r.first_line land mask32);
      pu32 b (roff + 8) (r.last_line land mask32);
      pu32 b (roff + 12) !crm_off;
      pu32 b (roff + 16) (List.length r.callrefmods);
      List.iter
        (fun e ->
          let eoff = !crm_off in
          (match e.call_key with
          | Key_call_item id ->
              pu32 b eoff 0;
              pu32 b (eoff + 4) id
          | Key_sub_region sr ->
              pu32 b eoff 1;
              pu32 b (eoff + 4)
                (match Hashtbl.find_opt ridx sr with
                | Some i -> i
                | None -> none));
          pu32 b (eoff + 8) (if e.refmod_all then 1 else 0);
          (* sorted runs so the reader binary-searches membership *)
          let put_cls l =
            let off0 = !cls_off in
            List.iter
              (fun c ->
                pu32 b !cls_off c;
                cls_off := !cls_off + 4)
              (List.sort compare l);
            (off0, List.length l)
          in
          let ro, rc = put_cls e.ref_classes in
          let mo, mc = put_cls e.mod_classes in
          pu32 b (eoff + 12) ro;
          pu32 b (eoff + 16) rc;
          pu32 b (eoff + 20) mo;
          pu32 b (eoff + 24) mc;
          crm_off := eoff + 28)
        r.callrefmods;
      pu32 b (roff + 20) !ups_off;
      pu32 b (roff + 24) (Array.length upss.(i));
      Array.iter
        (fun ur ->
          pu32 b !ups_off (Hashtbl.find ridx ur.region_id);
          ups_off := !ups_off + 4)
        upss.(i);
      pu32 b (roff + 28) !alias_off;
      let ab = aliases.(i) in
      pu32 b !alias_off ab.Q.ab_width;
      let bo = !alias_off + 4 in
      Bytes.blit ab.Q.ab_bits 0 b bo (Bytes.length ab.Q.ab_bits);
      alias_off := bo + pad4 (Bytes.length ab.Q.ab_bits))
    regions;
  assert (!crm_off = off_cls);
  assert (!cls_off = off_alias);
  assert (!alias_off = off_ups);
  assert (!ups_off = off_lines);
  Array.iteri
    (fun i (line, ri) ->
      pu32 b (off_lines + (8 * i)) (line land mask32);
      pu32 b (off_lines + (8 * i) + 4) ri)
    lines;
  let crc = S.crc32 (Bytes.unsafe_to_string b) o_len (total - o_len) in
  pu32 b o_crc crc;
  b

(* ------------------------------------------------------------------ *)
(* Raw loads (bounds-checked: garbage raises Torn, never a crash)      *)
(* ------------------------------------------------------------------ *)

let dim (seg : seg) = Bigarray.Array1.dim seg

let u8 (seg : seg) off =
  if off < 0 || off >= dim seg then raise Torn;
  Bigarray.Array1.unsafe_get seg off

(* NB: [Bigarray.Array1.unsafe_get] must stay fully applied at every
   site below — binding it to a shorter name demotes the primitive to
   a generic C call and costs ~30x on the query hot path. *)
let u32 (seg : seg) off =
  if off < 0 || off + 4 > Bigarray.Array1.dim seg then raise Torn;
  Bigarray.Array1.unsafe_get seg off
  lor (Bigarray.Array1.unsafe_get seg (off + 1) lsl 8)
  lor (Bigarray.Array1.unsafe_get seg (off + 2) lsl 16)
  lor (Bigarray.Array1.unsafe_get seg (off + 3) lsl 24)

let i32 (seg : seg) off =
  let v = u32 seg off in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* ------------------------------------------------------------------ *)
(* Header accessors                                                    *)
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

(** Wrap HLIX bytes (e.g. fresh from {!build}) as a segment without
    going through a file — tests and in-process probes. *)
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

(** Full segment check: magic (E0630), version (E0631), length
    (E0632), body CRC over [20, total_len) (E0633), content hash
    against [expect_hash] (E0634), and section geometry —
    monotone section offsets consistent with the header counts
    (E0635).  The generation word is deliberately outside the CRC;
    call this once per mapping and once per observed generation
    change, not per query. *)
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
  (* CRC over [o_len, len): everything except magic/version (checked
     above), the seqlock word and the CRC field itself *)
  let body = Bytes.create (len - o_len) in
  for i = 0 to len - o_len - 1 do
    Bytes.unsafe_set body i
      (Char.unsafe_chr (Bigarray.Array1.unsafe_get seg (o_len + i)))
  done;
  let crc = S.crc32 (Bytes.unsafe_to_string body) 0 (len - o_len) in
  if crc <> u32 seg o_crc then
    S.corrupt ~at:o_crc ~code:"E0633"
      "HLIX body CRC mismatch: stored %08x, computed %08x" (u32 seg o_crc) crc;
  if content_hash seg <> expect_hash then
    S.corrupt ~at:o_hash ~code:"E0634"
      "HLIX content hash does not match the opened HLI container";
  let n_items = u32 seg o_nitems
  and n_regions = u32 seg o_nregions
  and n_lines = u32 seg o_nlines in
  let offs =
    [
      u32 seg o_items; u32 seg o_chain; u32 seg o_regions; u32 seg o_crm;
      u32 seg o_cls; u32 seg o_alias; u32 seg o_ups; u32 seg o_lines;
    ]
  in
  let rec monotone prev = function
    | [] -> prev <= len
    | o :: rest -> prev <= o && monotone o rest
  in
  if not (monotone header_size offs) then
    S.corrupt ~code:"E0635" "HLIX section offsets not monotone within %d" len;
  let sec i = List.nth offs i in
  if sec 1 - sec 0 <> 16 * n_items then
    S.corrupt ~code:"E0635" "HLIX item section size disagrees with n_items";
  if sec 3 - sec 2 <> 32 * n_regions then
    S.corrupt ~code:"E0635" "HLIX region section size disagrees with n_regions";
  if len - sec 7 <> 8 * n_lines then
    S.corrupt ~code:"E0635" "HLIX line section size disagrees with n_lines"

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

(* preallocated results: the hot path returns these without allocating *)
let equiv_same_def = Q.Equiv_same Definitely
let equiv_same_maybe = Q.Equiv_same Maybe

(* cap any count read from the mapping: a table can't hold more
   records than the mapping has bytes, so anything bigger is torn *)
let capped seg count rec_size =
  if count < 0 || count * rec_size > dim seg then raise Torn;
  count

(* binary search the item table for [id]; -1 when absent.  Torn data
   may break sortedness — that yields a wrong slot, never a crash or
   unbounded loop, and the caller's generation re-check rejects it. *)
let find_item (seg : seg) id =
  let n = capped seg (u32 seg o_nitems) 16 in
  let base = u32 seg o_items in
  let lo = ref 0 and hi = ref n and res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = u32 seg (base + (16 * mid)) in
    if v = id then begin
      res := mid;
      lo := !hi
    end
    else if v < id then lo := mid + 1
    else hi := mid
  done;
  !res

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

(* bit (sa, sb) of the region's alias record at [aoff] *)
let alias_bit (seg : seg) aoff width sa sb =
  if sa < 0 || sb < 0 || sa >= width || sb >= width then false
  else
    let bits = aoff + 4 in
    let i = (sa * width) + sb in
    u8 seg (bits + (i lsr 3)) land (1 lsl (i land 7)) <> 0

(** Mirror of {!Query.get_equiv_acc}'s uncached decision, off the
    mapping.  Raises {!Torn} on any out-of-bounds load (segment being
    rewritten); never allocates on a successful path. *)
let get_equiv_acc (seg : seg) item_a item_b =
  let ia = find_item seg item_a and ib = find_item seg item_b in
  if ia < 0 || ib < 0 then Q.Equiv_unknown
  else
    let base = u32 seg o_items in
    let ca_off = u32 seg (base + (16 * ia) + 8)
    and ca_len = capped seg (u32 seg (base + (16 * ia) + 12)) 20
    and cb_off = u32 seg (base + (16 * ib) + 8)
    and cb_len = capped seg (u32 seg (base + (16 * ib) + 12)) 20 in
    if ca_len = 0 || cb_len = 0 then Q.Equiv_unknown
    else begin
      (* innermost region present in both chains, scanning a's chain
         outward — identical walk order to the engine *)
      let result = ref Q.Equiv_unknown and decided = ref false in
      let i = ref 0 in
      while (not !decided) && !i < ca_len do
        let ea = ca_off + (20 * !i) in
        let rid = u32 seg (ea + 4) in
        let j = ref 0 and jm = ref (-1) in
        while !jm < 0 && !j < cb_len do
          if u32 seg (cb_off + (20 * !j) + 4) = rid then jm := !j;
          incr j
        done;
        if !jm >= 0 then begin
          decided := true;
          let eb = cb_off + (20 * !jm) in
          let ca = u32 seg (ea + 8) and cb = u32 seg (eb + 8) in
          if ca = cb then
            result :=
              (match u32 seg (ea + 12) with
              | 0 -> equiv_same_def
              | 1 -> equiv_same_maybe
              | _ -> Q.Equiv_unknown)
          else begin
            let ridx = u32 seg ea in
            if ridx = none then result := Q.Equiv_unknown
            else begin
              let sa = u32 seg (ea + 16) and sb = u32 seg (eb + 16) in
              if sa = none || sb = none then result := Q.Equiv_none
              else begin
                let roff =
                  u32 seg o_regions + (32 * capped seg ridx 32)
                in
                let aoff = u32 seg (roff + 28) in
                let width = capped seg (u32 seg aoff) 8 in
                result :=
                  (if alias_bit seg aoff width sa sb then Q.Equiv_alias
                   else Q.Equiv_none)
              end
            end
          end
        end;
        incr i
      done;
      !result
    end

(* exact-line probe of the sorted lines section; -1 when absent *)
let find_line (seg : seg) line =
  let n = capped seg (u32 seg o_nlines) 8 in
  let base = u32 seg o_lines in
  let lo = ref 0 and hi = ref n and res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = u32 seg (base + (8 * mid)) in
    if v = line then begin
      res := u32 seg (base + (8 * mid) + 4);
      lo := !hi
    end
    else if v < line then lo := mid + 1
    else hi := mid
  done;
  !res

(* first chain element of item slot [islot] whose rid equals [rid];
   the class id there, or -1 — the engine's [class_at] *)
let class_at (seg : seg) islot rid =
  let base = u32 seg o_items in
  let c_off = u32 seg (base + (16 * islot) + 8)
  and c_len = capped seg (u32 seg (base + (16 * islot) + 12)) 20 in
  let i = ref 0 and res = ref (-1) in
  while !res < 0 && !i < c_len do
    if u32 seg (c_off + (20 * !i) + 4) = rid then
      res := u32 seg (c_off + (20 * !i) + 8);
    incr i
  done;
  !res

(** Mirror of {!Query.get_call_acc}'s uncached decision: resolve the
    call item's line to its innermost region, then walk the
    precomputed ancestor chain looking for the first callrefmod entry
    covering the call. *)
let get_call_acc (seg : seg) ~call ~mem =
  let ic = find_item seg call in
  if ic < 0 then Q.Call_unknown
  else
    let base = u32 seg o_items in
    let call_line = u32 seg (base + (16 * ic) + 4) in
    if call_line = none then Q.Call_unknown
    else
      let r0 = find_line seg call_line in
      if r0 < 0 then Q.Call_unknown
      else begin
        let im = find_item seg mem in
        let rbase = u32 seg o_regions in
        let r0off = rbase + (32 * capped seg r0 32) in
        let ups_off = u32 seg (r0off + 20)
        and ups_cnt = capped seg (u32 seg (r0off + 24)) 4 in
        let result = ref Q.Call_unknown and decided = ref false in
        let i = ref 0 in
        while (not !decided) && !i < ups_cnt do
          let uidx = capped seg (u32 seg (ups_off + (4 * !i))) 32 in
          let roff = rbase + (32 * uidx) in
          let rid = u32 seg roff in
          let crm_off = u32 seg (roff + 12)
          and crm_cnt = capped seg (u32 seg (roff + 16)) 28 in
          (* first covering entry, in table order *)
          let e = ref (-1) and j = ref 0 in
          while !e < 0 && !j < crm_cnt do
            let eoff = crm_off + (28 * !j) in
            let covers =
              match u32 seg eoff with
              | 0 -> u32 seg (eoff + 4) = call
              | _ ->
                  let sr = u32 seg (eoff + 4) in
                  sr <> none
                  &&
                  let soff = rbase + (32 * capped seg sr 32) in
                  call_line >= i32 seg (soff + 4)
                  && call_line <= i32 seg (soff + 8)
            in
            if covers then e := eoff;
            incr j
          done;
          (if !e >= 0 then
             let eoff = !e in
             let refmod_all = u32 seg (eoff + 8) <> 0 in
             let mc = if im < 0 then -1 else class_at seg im rid in
             if mc < 0 then begin
               (* call covered but mem not representable here *)
               if refmod_all then begin
                 decided := true;
                 result := Q.Call_refmod
               end
             end
             else begin
               decided := true;
               if refmod_all then result := Q.Call_refmod
               else
                 let r =
                   cls_mem seg (u32 seg (eoff + 12)) (u32 seg (eoff + 16)) mc
                 and m =
                   cls_mem seg (u32 seg (eoff + 20)) (u32 seg (eoff + 24)) mc
                 in
                 result :=
                   (match (r, m) with
                   | false, false -> Q.Call_none
                   | true, false -> Q.Call_ref
                   | false, true -> Q.Call_mod
                   | true, true -> Q.Call_refmod)
             end);
          incr i
        done;
        !result
      end
