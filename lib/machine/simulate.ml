(** Glue: run a lowered program on one of the machine models and report
    cycles plus execution statistics ({!run}), or time several schedules
    of one prefix from one interpretation ({!run_group}). *)

type machine = R4600 | R10000

type report = {
  machine : machine;
  cycles : int;
  dyn_insns : int;
  output : string;  (** program stdout, for output-equivalence checks *)
  ret : int;
  l1_hits : int;
  l1_misses : int;
  lsq_stalls : int;  (** 0 on the in-order machine *)
  misspeculations : int;
      (** always 0: the speculative scheduler that set it is gone.  The
          field stays because [bench/e2e] reports it as
          [machine.misspeculations] and pins it in [reference.txt]; it
          goes with those readers. *)
}

let machine_name = function R4600 -> "R4600" | R10000 -> "R10000"

(* a fresh model of [machine] for [code] *)
let model ?md machine code =
  match machine with
  | R4600 -> Exec.R4600 (Exec.Inorder.make ?md code)
  | R10000 -> Exec.R10000 (Exec.Ooo.make ?md code)

(* the report of [model] after the run [res] *)
let report machine model (res : Exec.result) =
  let cycles, (l1_hits, l1_misses), lsq_stalls =
    match model with
    | Exec.R4600 m -> (Exec.Inorder.cycles m, Exec.Cache.l1_stats m.Exec.Inorder.cache, 0)
    | Exec.R10000 m ->
        (Exec.Ooo.cycles m, Exec.Cache.l1_stats m.Exec.Ooo.cache, m.Exec.Ooo.lsq_stall_cycles)
    | Exec.Functional | Exec.Group _ -> invalid_arg "Simulate.report: not a timing model"
  in
  {
    machine;
    cycles;
    dyn_insns = res.Exec.dyn_count;
    output = res.Exec.output;
    ret = res.Exec.ret;
    l1_hits;
    l1_misses;
    lsq_stalls;
    misspeculations = 0;
  }

(** [md] overrides the machine description (default: the machine's own
    — {!Backend.Machdesc.r4600}/[r10000]); ablations use it to flip
    single knobs such as LSQ load blocking. *)
let run ?(fuel = 400_000_000) ?md (machine : machine)
    (prog : Backend.Rtl.program) : report =
  let code = Exec.decode prog in
  let m = model ?md machine code in
  report machine m (Exec.run_code ~fuel ~model:m code)

(* ------------------------------------------------------------------ *)
(* One interpretation per group                                        *)
(* ------------------------------------------------------------------ *)

open Backend

(** A schedule of a group breaks an order the prefix fixes: statically
    (a register dependence, a branch or a call moved) or dynamically (a
    memory pair it inverts, or an access it moves across a user call,
    overlaps at [addr]). *)
type violation = {
  member : int;  (** the schedule's index in the group *)
  fn : string;
  what : string;
  first : Rtl.insn;
  second : Rtl.insn;
  addr : int option;  (** the overlapping address, for the oracle *)
}

exception Violation of violation

let describe v =
  Printf.sprintf "%s in %s: uid %d (line %d) and uid %d (line %d)%s" v.what v.fn
    v.first.Rtl.uid v.first.Rtl.line v.second.Rtl.uid v.second.Rtl.line
    (match v.addr with Some a -> Printf.sprintf " at 0x%x" a | None -> "")

(* identical instructions, HLI item tags aside *)
let same_insn (a : Rtl.insn) (b : Rtl.insn) =
  a == b
  || a.Rtl.uid = b.Rtl.uid
     && a.Rtl.line = b.Rtl.line
     && compare a.Rtl.desc b.Rtl.desc = 0

(** [same_blocks a b]: every block of [a] holds [b]'s instructions, in
    the same order. *)
let same_blocks (a : Rtl.program) (b : Rtl.program) =
  a == b
  || List.compare_lengths a.Rtl.fns b.Rtl.fns = 0
     && List.for_all2
          (fun (f : Rtl.fn) (g : Rtl.fn) ->
            f.Rtl.fname = g.Rtl.fname
            && Array.length f.Rtl.blocks = Array.length g.Rtl.blocks
            && Array.for_all2
                 (fun (x : Rtl.block) (y : Rtl.block) -> List.equal same_insn x.Rtl.insns y.Rtl.insns)
                 f.Rtl.blocks g.Rtl.blocks)
          a.Rtl.fns b.Rtl.fns

(* For each instruction of [xs], the index of an identical one in the
   prefix block [pa], one to one; [None] unless [xs] is a permutation
   of [pa]. *)
let block_perm (pa : Rtl.insn array) (xs : Rtl.insn list) =
  let n = Array.length pa in
  if List.length xs <> n then None
  else begin
    let by_uid = Hashtbl.create n in
    for j = n - 1 downto 0 do
      Hashtbl.add by_uid pa.(j).Rtl.uid j
    done;
    let used = Array.make n false and perm = Array.make n 0 in
    let fits x j = (not used.(j)) && same_insn pa.(j) x in
    match
      List.iteri
        (fun i (x : Rtl.insn) ->
          match List.find_opt (fits x) (Hashtbl.find_all by_uid x.Rtl.uid) with
          | Some j ->
              used.(j) <- true;
              perm.(i) <- j
          | None -> raise Exit)
        xs
    with
    | () -> Some perm
    | exception Exit -> None
  end

(* Per function and block, the prefix index of each instruction of
   [rtl]'s block; [None] unless every block is a permutation of the
   prefix's. *)
let perms ~(prefix : Rtl.program) (rtl : Rtl.program) =
  if List.compare_lengths prefix.Rtl.fns rtl.Rtl.fns <> 0 then None
  else
    match
      List.map2
        (fun (f : Rtl.fn) (g : Rtl.fn) ->
          if Array.length f.Rtl.blocks <> Array.length g.Rtl.blocks then raise Exit;
          Array.map2
            (fun (pb : Rtl.block) (b : Rtl.block) ->
              match block_perm (Array.of_list pb.Rtl.insns) b.Rtl.insns with
              | Some p -> p
              | None -> raise Exit)
            f.Rtl.blocks g.Rtl.blocks)
        prefix.Rtl.fns rtl.Rtl.fns
    with
    | ps -> Some ps
    | exception Exit -> None

(* [pos.(j)]: where the schedule puts the prefix's instruction [j] *)
let inverse perm =
  let pos = Array.make (Array.length perm) 0 in
  Array.iteri (fun i j -> pos.(j) <- i) perm;
  pos

(* The static check of one block: branches keep their place and every
   other instruction its side of them, calls keep their order, and
   every register dependence of the prefix (RAW, WAR, WAW) keeps its
   order. *)
let check_block ~member ~fn (pa : Rtl.insn array) (pos : int array) =
  let n = Array.length pa in
  let fail what j k = raise (Violation { member; fn; what; first = pa.(j); second = pa.(k); addr = None }) in
  let keep what j k = if pos.(j) > pos.(k) then fail what j k in
  for k = 0 to n - 1 do
    if Rtl.is_branch pa.(k) then
      for j = 0 to n - 1 do
        if j < k then keep "moves a branch" j k else if j > k then keep "moves a branch" k j
      done
  done;
  let last_call = ref (-1) in
  Array.iteri
    (fun k x ->
      if Rtl.is_call x then begin
        if !last_call >= 0 then keep "reorders calls" !last_call k;
        last_call := k
      end)
    pa;
  let last_def = Hashtbl.create 16 and uses = Hashtbl.create 16 in
  let dep j k = keep "breaks a register dependence" j k in
  Array.iteri
    (fun k x ->
      List.iter
        (fun r ->
          Option.iter (fun d -> dep d k) (Hashtbl.find_opt last_def r);
          Hashtbl.replace uses r (k :: Option.value ~default:[] (Hashtbl.find_opt uses r)))
        (Rtl.uses x);
      match Rtl.def x with
      | Some r ->
          Option.iter (fun d -> dep d k) (Hashtbl.find_opt last_def r);
          List.iter (fun u -> dep u k) (Option.value ~default:[] (Hashtbl.find_opt uses r));
          Hashtbl.replace last_def r k;
          Hashtbl.replace uses r []
      | None -> ())
    pa

let check_perms ~member ~(prefix : Rtl.program) ps =
  List.iter2
    (fun (f : Rtl.fn) bps ->
      Array.iteri
        (fun b perm ->
          check_block ~member ~fn:f.Rtl.fname (Array.of_list f.Rtl.blocks.(b).Rtl.insns) (inverse perm))
        bps)
    prefix.Rtl.fns ps

(** The static check alone: [rtl]'s blocks must be permutations of
    [prefix]'s ([Invalid_argument] otherwise) that keep every register
    dependence, branch and call in the prefix's order; raises
    {!Violation} (member 0) at the first one broken. *)
let check_order ~prefix rtl =
  match perms ~prefix rtl with
  | Some ps -> check_perms ~member:0 ~prefix ps
  | None -> invalid_arg "Simulate.check_order: not a permutation of the prefix"

(** A schedule that can be timed in its prefix's group. *)
type member = {
  m_machine : machine;
  m_md : Machdesc.t option;
  m_perms : int array array list;  (** per function and block, see [perms] *)
  m_rtl : Rtl.program;
}

(** [rtl] as a member of [prefix]'s group: every block must be a
    permutation of the prefix's with identical instructions, HLI item
    tags aside; raises [Invalid_argument] otherwise. *)
let member ~prefix ?md machine rtl =
  match perms ~prefix rtl with
  | Some ps -> { m_machine = machine; m_md = md; m_perms = ps; m_rtl = rtl }
  | None -> invalid_arg "Simulate.member: not a permutation of the prefix"

(* The canonical order of one prefix block over the schedules [sched]
   (each as [pos]): user calls in their order; before each, everything
   the prefix or a schedule places before it; prefix order within each
   segment.  Returns [cpos.(j)], the canonical index of the prefix's
   instruction [j]. *)
let canonical ~user (pa : Rtl.insn array) (sched : int array list) =
  let n = Array.length pa in
  let calls_before pos =
    let cnt = Array.make n 0 and by_pos = Array.make n 0 in
    Array.iteri (fun j i -> by_pos.(i) <- j) pos;
    let c = ref 0 in
    Array.iter
      (fun j ->
        cnt.(j) <- !c;
        if user pa.(j) then incr c)
      by_pos;
    cnt
  in
  let cnts = List.map calls_before sched in
  let key j =
    match cnts with
    | [] -> 0
    | p :: _ when user pa.(j) -> (2 * p.(j)) + 1
    | p :: rest -> 2 * List.fold_left (fun m c -> min m c.(j)) p.(j) rest
  in
  let order = List.stable_sort (fun a b -> compare (key a) (key b)) (List.init n Fun.id) in
  let cpos = Array.make n 0 in
  List.iteri (fun c j -> cpos.(j) <- c) order;
  (cpos, cnts)

(* The canonical program of a group and the oracle's work: per block,
   the canonical order; per member, the canonical pc of each of its
   pcs; the memory pairs a member inverts and the memory instructions it
   moves across a user call, both by canonical pc, the first member to
   claim one naming it.  Blocks are laid out as [Code.decode] lays them
   out: each followed by its [Fall]. *)
let layout ~(prefix : Rtl.program) (members : member list) =
  let user =
    let names = Hashtbl.create 16 in
    List.iter (fun (f : Rtl.fn) -> Hashtbl.replace names f.Rtl.fname ()) prefix.Rtl.fns;
    fun (i : Rtl.insn) -> match i.Rtl.desc with Rtl.Call (g, _, _) -> Hashtbl.mem names g | _ -> false
  in
  let mem_op i = Rtl.mem_of_insn i <> None in
  let perms = Array.of_list (List.map (fun m -> Array.of_list m.m_perms) members) in
  let pc = ref 0 and pairs = ref [] and moved = ref [] in
  let to_canon = Array.map (fun _ -> ref []) perms in
  let block fi bi (blk : Rtl.block) =
    let pa = Array.of_list blk.Rtl.insns in
    let n = Array.length pa and b = !pc in
    pc := b + n + 1;
    let poss = Array.map (fun ps -> inverse ps.(fi).(bi)) perms in
    let cpos, cnts = canonical ~user pa (Array.init n Fun.id :: Array.to_list poss) in
    let cp j = b + cpos.(j) in
    let cnt_p = List.hd cnts in
    List.iteri
      (fun k cnt ->
        let pos = poss.(k) in
        to_canon.(k) := (b, Array.map cp perms.(k).(fi).(bi)) :: !(to_canon.(k));
        for j = 0 to n - 1 do
          if mem_op pa.(j) then begin
            for l = j + 1 to n - 1 do
              if mem_op pa.(l) && (Rtl.is_store pa.(j) || Rtl.is_store pa.(l)) && pos.(j) > pos.(l)
              then pairs := (k, cp j, cp l) :: !pairs
            done;
            (* the user calls between its sides in the prefix and the member *)
            let lo = min cnt_p.(j) cnt.(j) and hi = max cnt_p.(j) cnt.(j) in
            if lo < hi then
              Array.iteri
                (fun c x ->
                  if user x && cnt_p.(c) >= lo && cnt_p.(c) < hi then moved := (k, cp j, cp c) :: !moved)
                pa
          end
        done)
      (List.tl cnts);
    let order = Array.copy pa in
    Array.iteri (fun j x -> order.(cpos.(j)) <- x) pa;
    if Array.for_all2 ( == ) order pa then blk else { blk with Rtl.insns = Array.to_list order }
  in
  let fns =
    List.mapi (fun fi (f : Rtl.fn) -> { f with Rtl.blocks = Array.mapi (block fi) f.Rtl.blocks }) prefix.Rtl.fns
  in
  let first l =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (_, a, b) ->
        let fresh = not (Hashtbl.mem seen (a, b)) in
        Hashtbl.replace seen (a, b) ();
        fresh)
      (List.rev l)
  in
  ({ prefix with Rtl.fns }, Array.map (fun l -> !l) to_canon, first !pairs, first !moved)

(* an oracle overlap as a violation, named by canonical pcs *)
let overlap ~(prefix : Rtl.program) (code : Exec.code) ~member ~first ~second ~addr =
  let fi = ref 0 in
  Array.iteri
    (fun k (f : Exec.fn) -> if first >= f.Exec.first && first < f.Exec.first + f.Exec.npcs then fi := k)
    code.Exec.fns;
  let second = code.Exec.src.(second) in
  {
    member;
    fn = (List.nth prefix.Rtl.fns !fi).Rtl.fname;
    what =
      (if Rtl.is_call second then "moves an access across a call that overlaps it"
       else "reorders overlapping accesses");
    first = code.Exec.src.(first);
    second;
    addr = Some addr;
  }

(** Time every member in one interpretation of the canonical reordering
    of [prefix] (DESIGN.md, "One interpretation per group"): one report
    per member, in order.  Before running, the static check; while
    running, the address oracle.  Both raise {!Violation}. *)
let run_group ?(fuel = 400_000_000) ~(prefix : Rtl.program) (members : member list) :
    report list =
  List.iteri (fun k m -> check_perms ~member:k ~prefix m.m_perms) members;
  let canon, to_canon, pairs, moved = layout ~prefix members in
  let code = Exec.decode canon in
  let walkers =
    List.mapi
      (fun k m ->
        let mc = Exec.decode m.m_rtl in
        let t = Array.init (Array.length mc.Exec.insns) Fun.id in
        List.iter (fun (b, cps) -> Array.blit cps 0 t b (Array.length cps)) to_canon.(k);
        (model ?md:m.m_md m.m_machine mc, mc, t))
      members
  in
  let g = Exec.make_group code ~members:walkers ~pairs ~moved in
  match Exec.run_code ~fuel ~model:(Exec.Group g) code with
  | res -> List.map2 (fun m (timing, _, _) -> report m.m_machine timing res) members walkers
  | exception Exec.Overlap { member; first; second; addr } ->
      raise (Violation (overlap ~prefix code ~member ~first ~second ~addr))
