(** HLI query interface (paper Section 3.2.2): the memos and counters
    over a unit's {!Flatindex} image.

    The stored HLI is accessed only through these functions, so a back
    end never touches the raw tables.  An {!index} is built once per
    program unit when its entry is imported: {!build} lays the entry out
    as an HLIX image, the one query engine — the same image hlid seals
    and publishes for shm clients.

    The two pair queries ({!get_equiv_acc} and {!get_call_acc}) answer through the image's readers and are
    memoized on the item pair.  Memo tables are dropped by
    {!invalidate}, which every {!Maintain} edit calls on the index its
    session's queries read.  Per-kind query counters are bumped once
    per {e logical} query — cache hits included — so Table 2 totals
    are independent of caching.  The paper's other queries
    ({!get_alias}, {!get_lcdd}, {!get_region_of_item}) are off every
    hot path.

    An index (and its memo tables) is not synchronized: harness domains
    each build their own index per compilation variant.  The
    process-wide counters below are sharded per domain (each domain
    writes its own shard; readers sum the shards), so counting stays
    off the atomic-operation cost on the per-query hot path.

    The pre-index list-walking implementation survives as
    [test/query_ref.ml], the reference oracle the differential tests
    compare against. *)

open Tables
module F = Flatindex

(* ------------------------------------------------------------------ *)
(* Per-kind query counters (harness telemetry)                         *)
(* ------------------------------------------------------------------ *)

(** Process-wide counters of the five basic HLI queries, one per kind,
    plus the memo-cache and index-build counters the v2 telemetry
    schema reports.

    Counting sits on the hot path of every query, so the counters are
    {e sharded per domain}: each domain bumps plain mutable fields of
    its own domain-local shard (no atomic read-modify-write per query),
    and readers sum over all shards.  Every logical query is counted
    exactly once, so the sums are deterministic even though the
    per-shard split is not.  Readers run either on the same domain or
    after the harness pool has joined its workers (a synchronization
    edge), so the summed values are up to date at every read point. *)
type query_kind =
  | Q_equiv_acc
  | Q_alias
  | Q_lcdd
  | Q_call_acc
  | Q_region_of_item

type shard = {
  mutable s_equiv_acc : int;
  mutable s_alias : int;
  mutable s_lcdd : int;
  mutable s_call_acc : int;
  mutable s_region_of_item : int;
  mutable s_equiv_hits : int;
  mutable s_equiv_misses : int;
  mutable s_call_hits : int;
  mutable s_call_misses : int;
  mutable s_invalidations : int;
  mutable s_index_builds : int;
}

let shards : shard list ref = ref []
let shards_mutex = Mutex.create ()

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          s_equiv_acc = 0;
          s_alias = 0;
          s_lcdd = 0;
          s_call_acc = 0;
          s_region_of_item = 0;
          s_equiv_hits = 0;
          s_equiv_misses = 0;
          s_call_hits = 0;
          s_call_misses = 0;
          s_invalidations = 0;
          s_index_builds = 0;
        }
      in
      Mutex.lock shards_mutex;
      shards := s :: !shards;
      Mutex.unlock shards_mutex;
      s)

let shard () = Domain.DLS.get shard_key

let sum_shards f =
  Mutex.lock shards_mutex;
  let v = List.fold_left (fun acc s -> acc + f s) 0 !shards in
  Mutex.unlock shards_mutex;
  v

let count_query k =
  let s = shard () in
  match k with
  | Q_equiv_acc -> s.s_equiv_acc <- s.s_equiv_acc + 1
  | Q_alias -> s.s_alias <- s.s_alias + 1
  | Q_lcdd -> s.s_lcdd <- s.s_lcdd + 1
  | Q_call_acc -> s.s_call_acc <- s.s_call_acc + 1
  | Q_region_of_item -> s.s_region_of_item <- s.s_region_of_item + 1

let query_kind_name = function
  | Q_equiv_acc -> "equiv_acc"
  | Q_alias -> "alias"
  | Q_lcdd -> "lcdd"
  | Q_call_acc -> "call_acc"
  | Q_region_of_item -> "region_of_item"

let all_query_kinds =
  [ Q_equiv_acc; Q_alias; Q_lcdd; Q_call_acc; Q_region_of_item ]

let field_of_kind k (s : shard) =
  match k with
  | Q_equiv_acc -> s.s_equiv_acc
  | Q_alias -> s.s_alias
  | Q_lcdd -> s.s_lcdd
  | Q_call_acc -> s.s_call_acc
  | Q_region_of_item -> s.s_region_of_item

(** Snapshot of all per-kind counters, in a fixed order. *)
let query_counters () =
  List.map (fun k -> (query_kind_name k, sum_shards (field_of_kind k))) all_query_kinds

let reset_query_counters () =
  Mutex.lock shards_mutex;
  List.iter
    (fun s ->
      s.s_equiv_acc <- 0;
      s.s_alias <- 0;
      s.s_lcdd <- 0;
      s.s_call_acc <- 0;
      s.s_region_of_item <- 0)
    !shards;
  Mutex.unlock shards_mutex

(* ------------------------------------------------------------------ *)
(* Cache / index-build counters (harness telemetry, schema v2)         *)
(* ------------------------------------------------------------------ *)

(** Snapshot of the memo/index counters, in a fixed order (these feed
    the [hli-telemetry-v10] [query_cache] object and the [--stats] hit
    rate rows). *)
let cache_counters () =
  [
    ("equiv_memo_hits", sum_shards (fun s -> s.s_equiv_hits));
    ("equiv_memo_misses", sum_shards (fun s -> s.s_equiv_misses));
    ("call_memo_hits", sum_shards (fun s -> s.s_call_hits));
    ("call_memo_misses", sum_shards (fun s -> s.s_call_misses));
    ("memo_invalidations", sum_shards (fun s -> s.s_invalidations));
    ("index_builds", sum_shards (fun s -> s.s_index_builds));
  ]

let reset_cache_counters () =
  Mutex.lock shards_mutex;
  List.iter
    (fun s ->
      s.s_equiv_hits <- 0;
      s.s_equiv_misses <- 0;
      s.s_call_hits <- 0;
      s.s_call_misses <- 0;
      s.s_invalidations <- 0;
      s.s_index_builds <- 0)
    !shards;
  Mutex.unlock shards_mutex

(* ------------------------------------------------------------------ *)
(* Query result types (the image's)                                    *)
(* ------------------------------------------------------------------ *)

type equiv_result = F.equiv_result =
  | Equiv_none  (** proven distinct: never the same location *)
  | Equiv_same of equiv_kind  (** same class (definitely or maybe) *)
  | Equiv_alias  (** distinct classes listed as aliased *)
  | Equiv_unknown  (** at least one item is not represented in the HLI *)

type call_acc_result = F.call_acc_result =
  | Call_none
  | Call_ref
  | Call_mod
  | Call_refmod
  | Call_unknown

(* ------------------------------------------------------------------ *)
(* The index                                                           *)
(* ------------------------------------------------------------------ *)

type index = {
  entry : hli_entry;
  image : F.seg;  (* the unit's HLIX image, unsealed *)
  (* item ids seen more than once in the line table or in equivalence
     classes — the image keeps the last occurrence; importers surface
     these as a warning *)
  dup_items : int list;
  (* --- memo tables (per index; single-domain) --- *)
  (* keyed by two item ids packed into one int (see [memo_key]); the
     table's hash mixes the high half down, so packed keys spread *)
  equiv_memo : equiv_result F.Itbl.t;
  call_memo : call_acc_result F.Itbl.t;
}

(* Pack an id pair into one int key: cheaper to hash than a tuple and
   allocation-free on the per-query hot path.  A pair is only packable
   when both ids fit [memo_id_bits] (item ids are small per-unit
   integers, so in practice always); queries about out-of-range ids
   bypass the memo and are recomputed. *)
let memo_id_bits = 21
let memo_id_max = (1 lsl memo_id_bits) - 1
let memo_packable a b = a >= 0 && a <= memo_id_max && b >= 0 && b <= memo_id_max
let memo_key a b = (a lsl memo_id_bits) lor b

let build (entry : hli_entry) : index =
  let sh = shard () in
  sh.s_index_builds <- sh.s_index_builds + 1;
  let image, dup_items = F.build entry in
  {
    entry;
    image;
    dup_items;
    equiv_memo = F.Itbl.create 256;
    call_memo = F.Itbl.create 64;
  }

(** Item ids that occurred more than once in the line table or in the
    equivalence classes of [idx]'s entry (sorted, deduplicated).  The
    index keeps the last occurrence, as the pre-index engine did;
    importers report these on the same warning channel as unmapped
    references. *)
let duplicate_items idx = idx.dup_items

(** Drop every memoized answer of [idx].  Called by {!Maintain} on
    its session's queried index after each edit; the next query
    recomputes from the index's image. *)
let invalidate idx =
  let s = shard () in
  s.s_invalidations <- s.s_invalidations + 1;
  F.Itbl.reset idx.equiv_memo;
  F.Itbl.reset idx.call_memo

(** Number of memoized answers currently held (tests use this to prove
    invalidation). *)
let memo_size idx = F.Itbl.length idx.equiv_memo + F.Itbl.length idx.call_memo

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let access_type idx item = F.access_type idx.image item
let line_of_item idx item = F.line_of_item idx.image item
let class_at idx ~rid item = F.class_at idx.image ~rid item

(** Innermost region whose equivalent-access table directly contains the
    item.  [None] when the item is unknown to the HLI. *)
let get_region_of_item idx item =
  count_query Q_region_of_item;
  Option.map fst (F.direct_class idx.image item)

(* the unordered pair's memo key, or -1 when the ids do not pack *)
let pair_key a b =
  if not (memo_packable a b) then -1
  else if a <= b then memo_key a b
  else memo_key b a

(** Do two items possibly access the same memory location {e within one
    iteration} of every loop enclosing both?  This is the query the back
    end's dependence checker combines with its own analysis (Figure 5).
    Memoized on the unordered item pair (the relation is symmetric);
    the per-kind counter is bumped on every call, hit or miss. *)
let get_equiv_acc idx item_a item_b =
  let s = shard () in
  s.s_equiv_acc <- s.s_equiv_acc + 1;
  let key = pair_key item_a item_b in
  match if key < 0 then None else F.Itbl.find_opt idx.equiv_memo key with
  | Some r ->
      s.s_equiv_hits <- s.s_equiv_hits + 1;
      r
  | None ->
      s.s_equiv_misses <- s.s_equiv_misses + 1;
      let r = F.get_equiv_acc idx.image item_a item_b in
      if key >= 0 then F.Itbl.replace idx.equiv_memo key r;
      r

(** May the call item [call] reference or modify the location of memory
    item [mem]?  Memoized on [(call, mem)]; the per-kind counter is
    bumped on every call, hit or miss. *)
let get_call_acc idx ~call ~mem =
  let s = shard () in
  s.s_call_acc <- s.s_call_acc + 1;
  let key = if memo_packable call mem then memo_key call mem else -1 in
  match if key < 0 then None else F.Itbl.find_opt idx.call_memo key with
  | Some r ->
      s.s_call_hits <- s.s_call_hits + 1;
      r
  | None ->
      s.s_call_misses <- s.s_call_misses + 1;
      let r = F.get_call_acc idx.image ~call ~mem in
      if key >= 0 then F.Itbl.replace idx.call_memo key r;
      r

(* the region with id [rid]: the last one listed, as the image keeps *)
let region idx rid =
  List.fold_left
    (fun found r -> if r.region_id = rid then Some r else found)
    None idx.entry.regions

(** Alias query between two classes of one region: are they listed in a
    common alias entry? *)
let get_alias idx ~rid cls_a cls_b =
  count_query Q_alias;
  match region idx rid with
  | None -> false
  | Some r ->
      List.exists
        (fun ae -> List.mem cls_a ae.alias_classes && List.mem cls_b ae.alias_classes)
        r.aliases

(** Loop-carried data dependences between the classes representing the
    two items in loop region [rid] (normalized forward).  The empty list
    means "no LCDD recorded", which proves independence across
    iterations only when both items are represented in the region. *)
let get_lcdd idx ~rid item_a item_b =
  count_query Q_lcdd;
  match (region idx rid, class_at idx ~rid item_a, class_at idx ~rid item_b) with
  | Some r, Some ca, Some cb ->
      Some
        (List.filter
           (fun l ->
             (l.lcdd_src = ca && l.lcdd_dst = cb)
             || (l.lcdd_src = cb && l.lcdd_dst = ca))
           r.lcdds)
  | _ -> None

let pp_equiv_result ppf = function
  | Equiv_none -> Fmt.string ppf "none"
  | Equiv_same Definitely -> Fmt.string ppf "same(definite)"
  | Equiv_same Maybe -> Fmt.string ppf "same(maybe)"
  | Equiv_alias -> Fmt.string ppf "alias"
  | Equiv_unknown -> Fmt.string ppf "unknown"

let pp_call_acc ppf = function
  | Call_none -> Fmt.string ppf "none"
  | Call_ref -> Fmt.string ppf "ref"
  | Call_mod -> Fmt.string ppf "mod"
  | Call_refmod -> Fmt.string ppf "refmod"
  | Call_unknown -> Fmt.string ppf "unknown"
