(** HLI query interface (paper Section 3.2.2) — indexed, memoized engine.

    The stored HLI is accessed only through these functions, so a back
    end never touches the raw tables.  An {!index} is built once per
    program unit when its entry is imported.

    The paper's premise is that the back end consults the HLI on every
    memory-disambiguation decision (tens of queries per source line in
    the first scheduling pass alone, Table 2), so this engine
    precomputes everything a query needs at {!build} time:

    - each item's full [(region, class)] representation chain as an
      array (no per-query list walking through subclass links),
    - per-region alias {e bitsets}, making {!get_alias} and the
      alias leg of {!get_equiv_acc} an O(1) bit test,
    - each region's ancestor chain and, per source line, the innermost
      region containing it (for {!get_call_acc}),

    and memoizes the two pair-granularity queries ({!get_equiv_acc} on
    the unordered item pair, {!get_call_acc} on [(call, mem)]).  Memo
    tables are dropped by {!invalidate}, which every {!Maintain} edit
    calls on the index its session's queries read.  Per-kind query
    counters are bumped once per {e logical} query — cache hits
    included — so Table 2 totals are independent of caching.

    An index (and its memo tables) is not synchronized: harness domains
    each build their own index per compilation variant.  The
    process-wide counters below are sharded per domain (each domain
    writes its own shard; readers sum the shards), so counting stays
    off the atomic-operation cost on the per-query hot path.

    The previous list-walking implementation survives verbatim as
    {!Query_ref}, the slow reference oracle the differential tests
    compare against. *)

open Tables

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
  | Q_equiv_prob

type shard = {
  mutable s_equiv_acc : int;
  mutable s_alias : int;
  mutable s_lcdd : int;
  mutable s_call_acc : int;
  mutable s_region_of_item : int;
  mutable s_equiv_prob : int;
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
          s_equiv_prob = 0;
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
  | Q_equiv_prob -> s.s_equiv_prob <- s.s_equiv_prob + 1

let query_kind_name = function
  | Q_equiv_acc -> "equiv_acc"
  | Q_alias -> "alias"
  | Q_lcdd -> "lcdd"
  | Q_call_acc -> "call_acc"
  | Q_region_of_item -> "region_of_item"
  | Q_equiv_prob -> "equiv_prob"

let all_query_kinds =
  [ Q_equiv_acc; Q_alias; Q_lcdd; Q_call_acc; Q_region_of_item; Q_equiv_prob ]

let field_of_kind k (s : shard) =
  match k with
  | Q_equiv_acc -> s.s_equiv_acc
  | Q_alias -> s.s_alias
  | Q_lcdd -> s.s_lcdd
  | Q_call_acc -> s.s_call_acc
  | Q_region_of_item -> s.s_region_of_item
  | Q_equiv_prob -> s.s_equiv_prob

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
      s.s_region_of_item <- 0;
      s.s_equiv_prob <- 0)
    !shards;
  Mutex.unlock shards_mutex

(* ------------------------------------------------------------------ *)
(* Cache / index-build counters (harness telemetry, schema v2)         *)
(* ------------------------------------------------------------------ *)

(** Snapshot of the memo/index counters, in a fixed order (these feed
    the [hli-telemetry-v9] [query_cache] object and the [--stats] hit
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
(* Query result types                                                  *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Alias bitsets                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-region alias relation flattened to a k×k bit matrix over the
   class ids that appear in any alias entry.  Two classes are aliased
   iff some alias entry lists both — exactly the relation the reference
   engine computes by scanning the entry list. *)
type alias_bits = {
  ab_slot : (int, int) Hashtbl.t;  (** class id -> dense slot *)
  ab_width : int;
  ab_bits : Bytes.t;
}

let build_alias_bits (r : region_entry) : alias_bits =
  let ab_slot = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun ae ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem ab_slot c) then begin
            Hashtbl.replace ab_slot c !next;
            incr next
          end)
        ae.alias_classes)
    r.aliases;
  let k = !next in
  let ab_bits = Bytes.make (((k * k) + 7) / 8) '\000' in
  let set a b =
    let i = (a * k) + b in
    Bytes.set ab_bits (i lsr 3)
      (Char.chr (Char.code (Bytes.get ab_bits (i lsr 3)) lor (1 lsl (i land 7))))
  in
  List.iter
    (fun ae ->
      let ss = List.map (Hashtbl.find ab_slot) ae.alias_classes in
      List.iter (fun x -> List.iter (fun y -> set x y) ss) ss)
    r.aliases;
  { ab_slot; ab_width = k; ab_bits }

let alias_bit_test (ab : alias_bits) a b =
  match (Hashtbl.find_opt ab.ab_slot a, Hashtbl.find_opt ab.ab_slot b) with
  | Some sa, Some sb ->
      let i = (sa * ab.ab_width) + sb in
      Char.code (Bytes.get ab.ab_bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The index                                                           *)
(* ------------------------------------------------------------------ *)

(* Specialized int-keyed hash table for the memo caches: the generic
   [Hashtbl] hashes every key through the polymorphic runtime hash,
   which is a measurable per-query cost; a multiplicative mix of the
   packed pair key is enough (the low bits of the pack are one item id,
   so identity hashing would collide pathologically). *)
module Imemo = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* bucket selection uses the low bits of the hash, and multiplication
     only propagates entropy upward — fold the high half (the first
     packed id) down before mixing *)
  let hash x =
    let x = x lxor (x lsr 21) in
    x * 0x9E3779B1 land max_int
end)

type index = {
  entry : hli_entry;
  region_by_id : (int, region_entry) Hashtbl.t;
  (* innermost class containing each item: item id -> (region, class) *)
  direct_class : (int, int * int) Hashtbl.t;
  (* subclass links: (sub_region, class) -> (region, class) of parent *)
  class_up : (int * int, int * int) Hashtbl.t;
  acc_of_item : (int, access_type) Hashtbl.t;
  line_of_item : (int, int) Hashtbl.t;
  (* --- dense precomputed structures --- *)
  (* item id -> its full (region, class) chain, innermost first *)
  chain_of_item : (int, (int * int) array) Hashtbl.t;
  (* (region, class) -> equivalence kind, for the class_kind leg *)
  kind_of_class : (int * int, equiv_kind) Hashtbl.t;
  (* region id -> flattened alias relation *)
  alias_of_region : (int, alias_bits) Hashtbl.t;
  (* region id -> ancestor chain (the region itself first, root last) *)
  regions_up_of : (int, region_entry array) Hashtbl.t;
  (* line number -> innermost region containing it (line-interval index
     over the lines the line table actually mentions) *)
  innermost_at_line : (int, region_entry) Hashtbl.t;
  (* item ids seen more than once in the line table or in equivalence
     classes — earlier entries were silently overwritten pre-index;
     importers surface these as a warning *)
  dup_items : int list;
  (* --- memo tables (per index; single-domain) --- *)
  (* keyed by two item ids packed into one int (see [memo_key]) *)
  equiv_memo : equiv_result Imemo.t;
  call_memo : call_acc_result Imemo.t;
  prob_memo : (equiv_result * int) Imemo.t;
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
  let region_by_id = Hashtbl.create 16 in
  let direct_class = Hashtbl.create 64 in
  let class_up = Hashtbl.create 64 in
  let acc_of_item = Hashtbl.create 64 in
  let line_of_item = Hashtbl.create 64 in
  let dups = ref [] in
  List.iter (fun r -> Hashtbl.replace region_by_id r.region_id r) entry.regions;
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          List.iter
            (fun m ->
              match m with
              | Member_item id ->
                  if Hashtbl.mem direct_class id then dups := id :: !dups;
                  Hashtbl.replace direct_class id (r.region_id, c.class_id)
              | Member_subclass { sub_region; cls } ->
                  Hashtbl.replace class_up (sub_region, cls) (r.region_id, c.class_id))
            c.members)
        r.eq_classes)
    entry.regions;
  List.iter
    (fun le ->
      List.iter
        (fun it ->
          if Hashtbl.mem acc_of_item it.item_id then dups := it.item_id :: !dups;
          Hashtbl.replace acc_of_item it.item_id it.acc;
          Hashtbl.replace line_of_item it.item_id le.line_no)
        le.items)
    entry.line_table;
  (* full representation chain per item, innermost first.  The walk is
     capped at the number of subclass links so a malformed (cyclic)
     class_up relation terminates instead of hanging the build. *)
  let chain_of_item = Hashtbl.create (Hashtbl.length direct_class) in
  let max_chain = Hashtbl.length class_up + 1 in
  Hashtbl.iter
    (fun item rc0 ->
      let rec walk acc n rc =
        let acc = rc :: acc in
        if n >= max_chain then acc
        else
          match Hashtbl.find_opt class_up rc with
          | Some up -> walk acc (n + 1) up
          | None -> acc
      in
      Hashtbl.replace chain_of_item item
        (Array.of_list (List.rev (walk [] 1 rc0))))
    direct_class;
  (* (region, class) -> kind.  Region lookup goes through region_by_id
     (last region wins on a duplicate id); within a region the first
     class with a given id wins, like find_class. *)
  let kind_of_class = Hashtbl.create 64 in
  let alias_of_region = Hashtbl.create 16 in
  Hashtbl.iter
    (fun rid r ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem kind_of_class (rid, c.class_id)) then
            Hashtbl.replace kind_of_class (rid, c.class_id) c.kind)
        r.eq_classes;
      Hashtbl.replace alias_of_region rid (build_alias_bits r))
    region_by_id;
  (* ancestor chains, capped against malformed parent cycles *)
  let regions_up_of = Hashtbl.create 16 in
  let max_up = Hashtbl.length region_by_id in
  Hashtbl.iter
    (fun rid0 _ ->
      let rec up acc n rid =
        match Hashtbl.find_opt region_by_id rid with
        | None -> List.rev acc
        | Some r -> (
            if n >= max_up then List.rev (r :: acc)
            else
              match r.parent with
              | None -> List.rev (r :: acc)
              | Some p -> up (r :: acc) (n + 1) p)
      in
      Hashtbl.replace regions_up_of rid0 (Array.of_list (up [] 1 rid0)))
    region_by_id;
  (* innermost region per line of the line table: the fold mirrors the
     reference engine exactly (first region in entry order wins a
     span-length tie) *)
  let innermost_at_line = Hashtbl.create 64 in
  List.iter
    (fun le ->
      if not (Hashtbl.mem innermost_at_line le.line_no) then
        let line = le.line_no in
        let innermost =
          List.fold_left
            (fun best r ->
              if line >= r.first_line && line <= r.last_line then
                match best with
                | Some b
                  when r.last_line - r.first_line < b.last_line - b.first_line
                  ->
                    Some r
                | None -> Some r
                | _ -> best
              else best)
            None entry.regions
        in
        match innermost with
        | Some r -> Hashtbl.replace innermost_at_line line r
        | None -> ())
    entry.line_table;
  {
    entry;
    region_by_id;
    direct_class;
    class_up;
    acc_of_item;
    line_of_item;
    chain_of_item;
    kind_of_class;
    alias_of_region;
    regions_up_of;
    innermost_at_line;
    dup_items = List.sort_uniq compare !dups;
    equiv_memo = Imemo.create 256;
    call_memo = Imemo.create 64;
    prob_memo = Imemo.create 64;
  }

(** Item ids that occurred more than once in the line table or in the
    equivalence classes of [idx]'s entry (sorted, deduplicated).  The
    index keeps the last occurrence, as the pre-index engine did;
    importers report these on the same warning channel as unmapped
    references. *)
let duplicate_items idx = idx.dup_items

(** Drop every memoized answer of [idx].  Called by {!Maintain} on
    its session's queried index after each edit; the next query
    recomputes from the index's entry snapshot. *)
let invalidate idx =
  let s = shard () in
  s.s_invalidations <- s.s_invalidations + 1;
  Imemo.reset idx.equiv_memo;
  Imemo.reset idx.call_memo;
  Imemo.reset idx.prob_memo

(** Number of memoized answers currently held (tests use this to prove
    invalidation). *)
let memo_size idx =
  Imemo.length idx.equiv_memo + Imemo.length idx.call_memo
  + Imemo.length idx.prob_memo

(* ------------------------------------------------------------------ *)
(* Basic queries                                                       *)
(* ------------------------------------------------------------------ *)

let region idx rid = Hashtbl.find_opt idx.region_by_id rid

let access_type idx item = Hashtbl.find_opt idx.acc_of_item item

let line_of_item idx item = Hashtbl.find_opt idx.line_of_item item

(** Innermost region whose equivalent-access table directly contains the
    item.  [None] when the item is unknown to the HLI. *)
let get_region_of_item idx item =
  count_query Q_region_of_item;
  Option.map fst (Hashtbl.find_opt idx.direct_class item)

(** The class representing [item] in region [rid]: the first entry with
    that region along the item's precomputed chain. *)
let class_at idx ~rid item =
  match Hashtbl.find_opt idx.chain_of_item item with
  | None -> None
  | Some chain ->
      let n = Array.length chain in
      let rec find i =
        if i >= n then None
        else
          let r, c = chain.(i) in
          if r = rid then Some c else find (i + 1)
      in
      find 0

(** Chain of (region, class) representations of an item, innermost
    first. *)
let class_chain idx item =
  match Hashtbl.find_opt idx.chain_of_item item with
  | Some chain -> Array.to_list chain
  | None -> []

let class_kind idx ~rid cid = Hashtbl.find_opt idx.kind_of_class (rid, cid)

let classes_aliased (r : region_entry) a b =
  List.exists
    (fun ae -> List.mem a ae.alias_classes && List.mem b ae.alias_classes)
    r.aliases

(* uncached equivalent-access decision over the precomputed chains *)
let equiv_acc_uncached idx item_a item_b =
  match
    ( Hashtbl.find_opt idx.chain_of_item item_a,
      Hashtbl.find_opt idx.chain_of_item item_b )
  with
  | None, _ | _, None -> Equiv_unknown
  | Some chain_a, Some chain_b ->
      let la = Array.length chain_a and lb = Array.length chain_b in
      (* innermost region present in both chains, scanning a's chain
         outward — the chains are region paths, so this is the lowest
         common region of the two items *)
      let rec find i =
        if i >= la then Equiv_unknown
        else
          let rid, ca = chain_a.(i) in
          let rec assoc j =
            if j >= lb then None
            else
              let rb, cb = chain_b.(j) in
              if rb = rid then Some cb else assoc (j + 1)
          in
          match assoc 0 with
          | None -> find (i + 1)
          | Some cb ->
              if ca = cb then (
                match Hashtbl.find_opt idx.kind_of_class (rid, ca) with
                | Some k -> Equiv_same k
                | None -> Equiv_unknown)
              else (
                match Hashtbl.find_opt idx.alias_of_region rid with
                | None -> Equiv_unknown
                | Some ab ->
                    if alias_bit_test ab ca cb then Equiv_alias else Equiv_none)
      in
      find 0

(** Do two items possibly access the same memory location {e within one
    iteration} of every loop enclosing both?  This is the query the back
    end's dependence checker combines with its own analysis (Figure 5).
    Memoized on the unordered item pair (the relation is symmetric);
    the per-kind counter is bumped on every call, hit or miss. *)
let get_equiv_acc idx item_a item_b =
  let s = shard () in
  s.s_equiv_acc <- s.s_equiv_acc + 1;
  if memo_packable item_a item_b then begin
    (* unordered key: the relation is symmetric *)
    let key =
      if item_a <= item_b then memo_key item_a item_b
      else memo_key item_b item_a
    in
    match Imemo.find idx.equiv_memo key with
    | r ->
        s.s_equiv_hits <- s.s_equiv_hits + 1;
        r
    | exception Not_found ->
        s.s_equiv_misses <- s.s_equiv_misses + 1;
        let r = equiv_acc_uncached idx item_a item_b in
        Imemo.replace idx.equiv_memo key r;
        r
  end
  else begin
    s.s_equiv_misses <- s.s_equiv_misses + 1;
    equiv_acc_uncached idx item_a item_b
  end

(* ------------------------------------------------------------------ *)
(* Probabilistic equivalent-access query (HLI3)                        *)
(* ------------------------------------------------------------------ *)

(** Per-mille confidence assumed for a "maybe" answer when the HLI
    carries no probability for the pair (the front end had no
    evidence): an uninformative midpoint, so consumers that
    speculate only above-midpoint thresholds never act on it. *)
let default_maybe_prob = 500

(* probability recorded for the alias pair (ca, cb) in region [rid]:
   the first alias entry listing both classes wins, mirroring the
   entry-scan order of the reference engine *)
let alias_prob_at idx ~rid ca cb =
  match Hashtbl.find_opt idx.region_by_id rid with
  | None -> default_maybe_prob
  | Some r -> (
      match
        List.find_opt
          (fun ae -> List.mem ca ae.alias_classes && List.mem cb ae.alias_classes)
          r.aliases
      with
      | Some { alias_prob = Some p; _ } -> p
      | Some { alias_prob = None; _ } | None -> default_maybe_prob)

(* the equiv_acc chain walk, returning the answer together with its
   per-mille confidence.  The decision leg is byte-identical to
   [equiv_acc_uncached]; only the confidence is new. *)
let equiv_prob_uncached idx item_a item_b =
  match
    ( Hashtbl.find_opt idx.chain_of_item item_a,
      Hashtbl.find_opt idx.chain_of_item item_b )
  with
  | None, _ | _, None -> (Equiv_unknown, 0)
  | Some chain_a, Some chain_b ->
      let la = Array.length chain_a and lb = Array.length chain_b in
      let rec find i =
        if i >= la then (Equiv_unknown, 0)
        else
          let rid, ca = chain_a.(i) in
          let rec assoc j =
            if j >= lb then None
            else
              let rb, cb = chain_b.(j) in
              if rb = rid then Some cb else assoc (j + 1)
          in
          match assoc 0 with
          | None -> find (i + 1)
          | Some cb ->
              if ca = cb then (
                match Hashtbl.find_opt idx.kind_of_class (rid, ca) with
                | Some Definitely -> (Equiv_same Definitely, 1000)
                | Some Maybe -> (Equiv_same Maybe, default_maybe_prob)
                | None -> (Equiv_unknown, 0))
              else (
                match Hashtbl.find_opt idx.alias_of_region rid with
                | None -> (Equiv_unknown, 0)
                | Some ab ->
                    if alias_bit_test ab ca cb then
                      (Equiv_alias, alias_prob_at idx ~rid ca cb)
                    else (Equiv_none, 1000))
      in
      find 0

(** {!get_equiv_acc} with a per-mille confidence attached: how likely
    the two items really do touch the same location ([Equiv_same] /
    [Equiv_alias]), or how certain the separation is ([Equiv_none] is
    proven, so 1000; [Equiv_unknown] carries no evidence, so 0).  The
    answer component always equals [get_equiv_acc] on the same pair.
    Memoized on the unordered item pair; the [Q_equiv_prob] counter is
    bumped on every call, hit or miss. *)
let get_equiv_prob idx item_a item_b =
  let s = shard () in
  s.s_equiv_prob <- s.s_equiv_prob + 1;
  if memo_packable item_a item_b then begin
    let key =
      if item_a <= item_b then memo_key item_a item_b
      else memo_key item_b item_a
    in
    match Imemo.find idx.prob_memo key with
    | r -> r
    | exception Not_found ->
        let r = equiv_prob_uncached idx item_a item_b in
        Imemo.replace idx.prob_memo key r;
        r
  end
  else equiv_prob_uncached idx item_a item_b

(** Alias query between two classes of one region: are they listed in a
    common alias entry?  An O(1) bit test on the region's alias bitset. *)
let get_alias idx ~rid cls_a cls_b =
  count_query Q_alias;
  match Hashtbl.find_opt idx.alias_of_region rid with
  | None -> false
  | Some ab -> alias_bit_test ab cls_a cls_b

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

(* uncached call REF/MOD resolution over the precomputed line-interval
   and ancestor-chain indexes *)
let call_acc_uncached idx ~call ~mem =
  (* does region [r]'s callrefmod table cover this call? *)
  let covering call_line (r : region_entry) =
    List.find_opt
      (fun e ->
        match e.call_key with
        | Key_call_item id -> id = call
        | Key_sub_region sr -> (
            (* the call is inside sub-region sr *)
            match Hashtbl.find_opt idx.region_by_id sr with
            | Some sub -> call_line >= sub.first_line && call_line <= sub.last_line
            | None -> false))
      r.callrefmods
  in
  match Hashtbl.find_opt idx.line_of_item call with
  | None -> Call_unknown
  | Some call_line -> (
      match Hashtbl.find_opt idx.innermost_at_line call_line with
      | None -> Call_unknown
      | Some r0 ->
          let ups =
            match Hashtbl.find_opt idx.regions_up_of r0.region_id with
            | Some a -> a
            | None -> [||]
          in
          let n = Array.length ups in
          let rec search i =
            if i >= n then Call_unknown
            else
              let r = ups.(i) in
              match (covering call_line r, class_at idx ~rid:r.region_id mem) with
              | Some e, Some mc ->
                  if e.refmod_all then Call_refmod
                  else begin
                    match
                      (List.mem mc e.ref_classes, List.mem mc e.mod_classes)
                    with
                    | false, false -> Call_none
                    | true, false -> Call_ref
                    | false, true -> Call_mod
                    | true, true -> Call_refmod
                  end
              | Some e, None ->
                  (* call covered but mem not representable here *)
                  if e.refmod_all then Call_refmod else search (i + 1)
              | None, _ -> search (i + 1)
          in
          search 0)

(** May the call item [call] reference or modify the location of memory
    item [mem]?  Resolves the call through the region that lists it
    (either as an immediate call item or via a sub-region entry),
    walking the precomputed ancestor chain of the innermost region
    containing the call's line.  Memoized on [(call, mem)]; the
    per-kind counter is bumped on every call, hit or miss. *)
let get_call_acc idx ~call ~mem =
  let s = shard () in
  s.s_call_acc <- s.s_call_acc + 1;
  if memo_packable call mem then begin
    let key = memo_key call mem in
    match Imemo.find idx.call_memo key with
    | r ->
        s.s_call_hits <- s.s_call_hits + 1;
        r
    | exception Not_found ->
        s.s_call_misses <- s.s_call_misses + 1;
        let r = call_acc_uncached idx ~call ~mem in
        Imemo.replace idx.call_memo key r;
        r
  end
  else begin
    s.s_call_misses <- s.s_call_misses + 1;
    call_acc_uncached idx ~call ~mem
  end

(* ------------------------------------------------------------------ *)
(* Derived queries                                                     *)
(* ------------------------------------------------------------------ *)

(** True when the HLI proves the two items never touch the same location
    in the same iteration — the "no dependence" answer used to cut DDG
    edges. *)
let proves_independent idx item_a item_b =
  match get_equiv_acc idx item_a item_b with
  | Equiv_none -> true
  | Equiv_same _ | Equiv_alias | Equiv_unknown -> false

(** True when the HLI proves the call neither refs nor mods the item's
    location. *)
let call_independent idx ~call ~mem =
  match get_call_acc idx ~call ~mem with
  | Call_none -> true
  | Call_ref | Call_mod | Call_refmod | Call_unknown -> false

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
