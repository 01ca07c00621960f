(** Set-associative cache model with LRU replacement, used as the L1
    data cache (backed by an optional L2) of both machine models. *)

type level = {
  sets : int;
  ways : int;
  line_shift : int;  (** log2 line bytes *)
  set_shift : int;  (** log2 sets *)
  tags : int array;  (** [set * ways + way] = tag, -1 empty *)
  lru : int array;  (** same index; higher = more recently used *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  let k = go 0 in
  if 1 lsl k <> n then invalid_arg "Cache: sizes must be powers of two";
  k

let make_level ~size_bytes ~ways ~line_bytes =
  let sets = max 1 (size_bytes / (ways * line_bytes)) in
  {
    sets;
    ways;
    line_shift = log2 line_bytes;
    set_shift = log2 sets;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* true = hit.  Addresses are non-negative, so shifts and masks are the
   line/set/tag divisions. *)
let access_level l addr =
  let line = addr lsr l.line_shift in
  let set = line land (l.sets - 1) in
  let tag = line lsr l.set_shift in
  l.tick <- l.tick + 1;
  let base = set * l.ways in
  let tags = l.tags and lru = l.lru in
  let w = ref 0 in
  while !w < l.ways && tags.(base + !w) <> tag do
    incr w
  done;
  if !w < l.ways then begin
    lru.(base + !w) <- l.tick;
    l.hits <- l.hits + 1;
    true
  end
  else begin
    l.misses <- l.misses + 1;
    (* evict LRU way *)
    let victim = ref base in
    for k = base + 1 to base + l.ways - 1 do
      if lru.(k) < lru.(!victim) then victim := k
    done;
    tags.(!victim) <- tag;
    lru.(!victim) <- l.tick;
    false
  end

type t = {
  l1 : level;
  l2 : level option;
  l2_penalty : int;  (** extra cycles on L1 miss, L2 hit *)
  mem_penalty : int;  (** extra cycles on L2 miss (or L1 miss, no L2) *)
}

(** Parameters of the R4600 board in the paper: 16 KB 2-way L1D, no L2,
    64 MB DRAM. *)
let r4600 () =
  {
    l1 = make_level ~size_bytes:(16 * 1024) ~ways:2 ~line_bytes:32;
    l2 = None;
    l2_penalty = 0;
    mem_penalty = 30;
  }

(** R10000: 32 KB 2-way L1D, 2 MB unified L2. *)
let r10000 () =
  {
    l1 = make_level ~size_bytes:(32 * 1024) ~ways:2 ~line_bytes:32;
    l2 = Some (make_level ~size_bytes:(2 * 1024 * 1024) ~ways:2 ~line_bytes:64);
    l2_penalty = 8;
    mem_penalty = 60;
  }

(** Access the hierarchy; returns the extra latency beyond an L1 hit. *)
let access t addr =
  if access_level t.l1 addr then 0
  else
    match t.l2 with
    | None -> t.mem_penalty
    | Some l2 ->
        if access_level l2 addr then t.l2_penalty
        else t.l2_penalty + t.mem_penalty

let l1_stats t = (t.l1.hits, t.l1.misses)
