(** Data dependence graph construction for basic-block scheduling, with
    the paper's query counting (Table 2).

    For every pair of memory references in a block where at least one is
    a write, the builder asks {b both} analyzers — GCC's local
    [true_dependence] and the HLI equivalent-access query — and combines
    them exactly as Figure 5 does:
    [final = flag_use_hli ? gcc_value && hli_value : gcc_value].
    The three "yes" counters correspond to Table 2's {e GCC result},
    {e HLI result} and {e Combined result} columns. *)

open Rtl

(** Which analyzer drives edge insertion. *)
type mode = Gcc_only | With_hli

type stats = {
  mutable total : int;  (** dependence queries issued *)
  mutable gcc_yes : int;
  mutable hli_yes : int;
  mutable combined_yes : int;
}

let fresh_stats () =
  {
    total = 0;
    gcc_yes = 0;
    hli_yes = 0;
    combined_yes = 0;
  }

(** The latency of an edge that waits for its producer's result: a RAW
    register edge, or a store-to-load edge.  {!Sched.schedule_block}
    resolves it with {!Machdesc.latency} of the edge's source; every
    other edge latency is a fixed cycle count (WAW 1, WAR 0; memory,
    call and control edges 1), so the graph itself
    does not depend on the machine. *)
let producer = -1

type graph = {
  insns : insn array;
  preds : (int * int) list array;
      (** (pred index, latency) per node; the latency is {!producer} or
          a fixed cycle count *)
  succs : (int * int) list array;
}

(* Memory-vs-memory dependence decision for a pair with at least one
   store, with counting: every such pair is one Table 2 query.  The HLI
   is asked whenever it is present, under [Gcc_only] too, so Table 2's
   HLI column is measured on the same query stream; it drives the
   decision only under [With_hli].  [combine_gcc = false] is the
   "hli-only" ablation: the final decision trusts the HLI answer alone
   instead of Figure 5's [gcc && hli]; the counter stream is unchanged
   so Table 2 stays comparable. *)
let mem_pair_dependent ~mode ~combine_gcc ~(hli : Hli_import.t option)
    ~stats (a : insn) (b : insn) : bool =
  match (mem_of_insn a, mem_of_insn b) with
  | Some ma, Some mb -> (
      let gcc_value = Gcc_alias.true_dependence ma mb in
      stats.total <- stats.total + 1;
      if gcc_value then stats.gcc_yes <- stats.gcc_yes + 1;
      match hli with
      | None -> gcc_value
      | Some h -> (
          let hli_value = not (Hli_import.proves_independent h a b) in
          if hli_value then stats.hli_yes <- stats.hli_yes + 1;
          if gcc_value && hli_value then
            stats.combined_yes <- stats.combined_yes + 1;
          match mode with
          | Gcc_only -> gcc_value
          | With_hli -> if combine_gcc then gcc_value && hli_value else hli_value))
  | _ -> false

(* Call-vs-memory decision (not counted in Table 2's query stream, which
   the paper restricts to memory disambiguation). *)
let call_mem_dependent ~mode ~hli (call : insn) (mem : insn) : bool =
  let linkage =
    (* Argument-passing slots feed (and are consumed by) calls: they can
       never move across one, regardless of what the HLI says about
       user-visible memory. *)
    match mem_of_insn mem with
    | Some { mbase = Bargout | Bargin; _ } -> true
    | _ -> false
  in
  if linkage then true
  else
    match (mode, hli) with
    | Gcc_only, _ | _, None -> true (* GCC fences all memory at calls *)
    | With_hli, Some h -> Hli_import.call_conflicts h ~call ~mem

(* What an instruction can depend on, beyond registers: only branches,
   calls and memory references take part in the pairwise pass. *)
type kind = K_plain | K_load | K_store | K_call | K_branch

let kind_of (i : insn) =
  match i.desc with
  | Load _ -> K_load
  | Store _ -> K_store
  | Call _ -> K_call
  | Br_eqz _ | Br_nez _ | Jmp _ | Ret _ -> K_branch
  | Li _ | Alu _ | Falu _ | La _ | Laf _ | Cvt_i2f _ | Cvt_f2i _ | Getarg _ ->
      K_plain

(** Build the DDG of one block.  [stats] accumulates query counts across
    blocks.  The graph is the same for every machine: edges whose
    latency is the producer's carry {!producer}, so one build serves
    the schedules of both machines.

    Each instruction is classified once; register dependences live in
    arrays indexed by register; and the pairwise pass visits, for each
    [j], only the earlier [k] whose kinds can make the pair dependent,
    in ascending [k].  The (j, k) order of the GCC and HLI queries is
    therefore that of the full triangle. *)
let build ~mode ?(combine_gcc = true) ~(hli : Hli_import.t option) ~stats (block_insns : insn list) : graph =
  let insns = Array.of_list block_insns in
  let n = Array.length insns in
  let kind = Array.make n K_plain in
  let uses = Array.make n [] and defs = Array.make n (-1) in
  let nregs = ref 0 in
  for j = 0 to n - 1 do
    let i = insns.(j) in
    kind.(j) <- kind_of i;
    uses.(j) <- Rtl.uses i;
    nregs := List.fold_left (fun top r -> Int.max top (r + 1)) !nregs uses.(j);
    match def i with
    | Some r ->
        defs.(j) <- r;
        nregs := Int.max !nregs (r + 1)
    | None -> ()
  done;
  let preds = Array.make n [] and succs = Array.make n [] in
  let add_edge src dst lat =
    if src <> dst then begin
      preds.(dst) <- (src, lat) :: preds.(dst);
      succs.(src) <- (dst, lat) :: succs.(src)
    end
  in
  (* register dependences: the last definition of each register, and
     its uses since *)
  let last_def = Array.make !nregs (-1) in
  let uses_since_def = Array.make !nregs [] in
  let rec read j = function
    | [] -> ()
    | r :: rest ->
        let dj = last_def.(r) in
        if dj >= 0 then add_edge dj j producer (* RAW *);
        uses_since_def.(r) <- j :: uses_since_def.(r);
        read j rest
  in
  let rec war j = function
    | [] -> ()
    | uj :: rest ->
        add_edge uj j 0;
        war j rest
  in
  for j = 0 to n - 1 do
    read j uses.(j);
    let r = defs.(j) in
    if r >= 0 then begin
      if last_def.(r) >= 0 then add_edge last_def.(r) j 1 (* WAW *);
      war j uses_since_def.(r);
      last_def.(r) <- j;
      uses_since_def.(r) <- []
    end
  done;
  (* memory, call and control dependences *)
  let pair k j =
    let a = insns.(k) and b = insns.(j) in
    let dependent =
      match (kind.(k), kind.(j)) with
      | K_branch, _ | _, K_branch | K_call, K_call -> true
      | K_call, (K_load | K_store) -> call_mem_dependent ~mode ~hli a b
      | (K_load | K_store), K_call -> call_mem_dependent ~mode ~hli b a
      | K_store, (K_load | K_store) | K_load, K_store ->
          mem_pair_dependent ~mode ~combine_gcc ~hli ~stats a b
      | K_plain, _ | _, K_plain | K_load, K_load -> false
    in
    if dependent then
      (* a load waits for the store's latency, everything else 1 *)
      add_edge k j
        (match (kind.(k), kind.(j)) with K_store, K_load -> producer | _ -> 1)
  in
  (* The earlier instructions each kind can depend on, in block order:
     a plain instruction only on [branches]; a load on [no_loads]
     (branches, calls, stores); a store or call on [nonplain]; a branch
     on everything before it. *)
  let branches = Array.make n 0 and no_loads = Array.make n 0
  and nonplain = Array.make n 0 in
  let nb = ref 0 and nn = ref 0 and np = ref 0 in
  let visit buf len j =
    for t = 0 to len - 1 do
      pair buf.(t) j
    done
  in
  let push buf len j =
    buf.(!len) <- j;
    incr len
  in
  for j = 0 to n - 1 do
    (match kind.(j) with
    | K_branch ->
        for k = 0 to j - 1 do
          pair k j
        done
    | K_plain -> visit branches !nb j
    | K_load -> visit no_loads !nn j
    | K_store | K_call -> visit nonplain !np j);
    match kind.(j) with
    | K_plain -> ()
    | K_load -> push nonplain np j
    | K_store | K_call -> push no_loads nn j; push nonplain np j
    | K_branch -> push branches nb j; push no_loads nn j; push nonplain np j
  done;
  { insns; preds; succs }
