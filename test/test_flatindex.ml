(* HLIX (lib/core/flatindex.ml) correctness + corruption harness.

   1. Differential: for every workload entry, the two pair queries
      answered off the flat segment equal the reference oracle
      ([Query_ref], the list-walking engine) — equiv_acc and call_acc
      over all sampled item pairs (absent ids included).
      A segment of any other HLIX version (the previous one, 4,
      included) is rejected with E0631.
   2. All-prefix truncation: every strict prefix of a segment must be
      rejected by [Flatindex.validate] with a precise E063x code
      (truncations land on E0632 — the stored total_len can never fit).
   3. Single-byte mutation sweep (budget scaled by FUZZ_ITERS, like
      the serializer fuzz suite): any flipped byte outside the seqlock
      generation word must surface as E0630..E0635; flips inside the
      generation word leave the content intact, so validation must
      still pass and answers must still match the oracle.  A flip
      inside the body is always caught by the CRC, so sealed images
      with a bad item table, section offset or alias record check the
      geometry checks (E0635) directly.
   4. Seqlock torture: one writer domain rebuilding a published
      segment in a storm of Maintain commits while reader domains
      hammer the mapping with generation-checked lookups — every
      settled answer must match the oracle, and the race must actually
      be exercised (retry count > 0).

   The @fuzz alias raises the mutation budget via FUZZ_ITERS. *)

module T = Hli_core.Tables
module Q = Hli_core.Query
module F = Hli_core.Flatindex
module S = Hli_core.Serialize
module M = Hli_core.Maintain
module R = Query_ref

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let iters = env_int "FUZZ_ITERS" 100
let seed = env_int "FUZZ_SEED" 0x484c4958 (* "HLIX" *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL: " ^ m))
    fmt

(* deterministic LCG so failing runs reproduce exactly *)
let rng = ref seed

let rand_int bound =
  rng := ((!rng * 25214903917) + 11) land 0xffffffffffff;
  (!rng lsr 16) mod bound

let entries_of_workload (w : Workloads.Workload.t) =
  let prog = Srclang.Typecheck.program_of_string w.Workloads.Workload.source in
  Harness.Pipeline.build_hli_entries prog

let items_of_entry (e : T.hli_entry) =
  List.sort_uniq compare
    (List.concat_map
       (fun le -> List.map (fun it -> it.T.item_id) le.T.items)
       e.T.line_table)

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n xs

let pp_equiv r = Format.asprintf "%a" Q.pp_equiv_result r
let pp_call r = Format.asprintf "%a" Q.pp_call_acc r

(* the entry's image, sealed as hlid publishes it *)
let sealed hash e =
  let seg, _dups = F.build e in
  F.seal ~content_hash:hash seg;
  seg

let bytes_of_seg (seg : F.seg) =
  Bytes.init (Bigarray.Array1.dim seg) (fun i -> Char.chr seg.{i})

(* ------------------------------------------------------------------ *)
(* 1: differential vs the reference oracle                             *)
(* ------------------------------------------------------------------ *)

let differential name (e : T.hli_entry) ref_idx seg =
  let u = e.T.unit_name in
  (* sampled present ids plus ids the HLI has never seen *)
  let items = take 14 (items_of_entry e) @ [ 999_999_983; 424242 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let want = R.get_equiv_acc ref_idx a b
          and got = F.get_equiv_acc seg a b in
          if want <> got then
            fail "%s/%s equiv %d %d: oracle %s, segment %s" name u a b
              (pp_equiv want) (pp_equiv got);
          let want = R.get_call_acc ref_idx ~call:a ~mem:b
          and got = F.get_call_acc seg ~call:a ~mem:b in
          if want <> got then
            fail "%s/%s call %d %d: oracle %s, segment %s" name u a b
              (pp_call want) (pp_call got))
        items)
    items

(* ------------------------------------------------------------------ *)
(* 2+3: truncation and mutation sweeps                                 *)
(* ------------------------------------------------------------------ *)

let e063x = [ "E0630"; "E0631"; "E0632"; "E0633"; "E0634"; "E0635" ]

let expect_rejected name what hash seg =
  match F.validate ~expect_hash:hash seg with
  | () -> fail "%s: %s validated despite corruption" name what
  | exception S.Corrupt c ->
      if not (List.mem c.S.c_code e063x) then
        fail "%s: %s rejected with %s, not an E063x code" name what c.S.c_code
  | exception e ->
      fail "%s: %s crashed validate: %s" name what (Printexc.to_string e)

let truncations name hash bytes counter =
  let n = Bytes.length bytes in
  for len = 0 to n - 1 do
    incr counter;
    let seg = F.seg_of_bytes (Bytes.sub bytes 0 len) in
    expect_rejected name (Printf.sprintf "truncation at %d" len) hash seg
  done

let mutations name hash ref_idx ~probe bytes ~muts counter gen_checked =
  let n = Bytes.length bytes in
  (* targeted header positions first, then a budgeted random sweep *)
  let positions =
    [ 0; 1; 4; 5; 8; 9; 15; 16; 19; 20; 23; 24; 39; 40; 52; 80; 95 ]
    @ List.init muts (fun _ -> rand_int n)
  in
  List.iter
    (fun pos ->
      if pos < n then begin
        incr counter;
        let x = 1 + rand_int 255 in
        let b = Bytes.copy bytes in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
        let seg = F.seg_of_bytes b in
        let what = Printf.sprintf "mutation at byte %d (xor %#x)" pos x in
        if pos >= 8 && pos < 16 then begin
          (* generation word: outside the CRC by design — content is
             intact, so validation passes and answers stay correct *)
          incr gen_checked;
          (match F.validate ~expect_hash:hash seg with
          | () -> ()
          | exception e ->
              fail "%s: %s (gen word) rejected: %s" name what
                (Printexc.to_string e));
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if R.get_equiv_acc ref_idx a b <> F.get_equiv_acc seg a b then
                    fail "%s: %s (gen word) changed an answer" name what)
                probe)
            probe
        end
        else expect_rejected name what hash seg
      end)
    positions

(* resealed images whose geometry is wrong must be precise E0635 *)
let geometry name hash bytes =
  let u32 off = Int32.to_int (Bytes.get_int32_le bytes off) in
  let broken what off v =
    let b = Bytes.copy bytes in
    Bytes.set_int32_le b off (Int32.of_int v);
    let seg = F.seg_of_bytes b in
    F.seal ~content_hash:hash seg;
    match F.validate ~expect_hash:hash seg with
    | () -> fail "%s: %s validated" name what
    | exception S.Corrupt c ->
        if c.S.c_code <> "E0635" then
          fail "%s: %s rejected as %s, want E0635" name what c.S.c_code
  in
  broken "a 3-slot item table" F.o_nslots 3;
  broken "a chain section overlapping the items" F.o_chain (u32 F.o_chain - 4);
  if u32 F.o_nregions > 0 then
    broken "an alias record outside its section" (u32 F.o_regions + 28) 0

(* ------------------------------------------------------------------ *)
(* 4: seqlock torture — writer rebuild storm vs generation-checked     *)
(* readers over one shared mapping                                     *)
(* ------------------------------------------------------------------ *)

let torture () =
  let w =
    match Workloads.Registry.find "wc" with
    | Some w -> w
    | None -> failwith "wc workload missing"
  in
  let entries = entries_of_workload w in
  let e = List.find (fun e -> items_of_entry e <> []) entries in
  let idx0 = Q.build e in
  let hash = Digest.string "torture" in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlix-torture-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pub = Hli_server.Shm.publish ~dir ~name:"torture" ~hash idx0 in
  (* an alternate index with extra generated items: every answer for
     the ORIGINAL items is invariant, but the segment bytes (offsets,
     item table) genuinely move between rebuilds *)
  let items = items_of_entry e in
  let like = List.hd items in
  let mt = M.start e in
  for i = 0 to 19 do
    ignore (M.gen_item mt ~like ~line:(5 + i))
  done;
  let _entry', idx1 = M.commit mt in
  let probes = Array.of_list (take 12 items) in
  let np = Array.length probes in
  let ref_idx = R.build e in
  let oracle =
    Array.init np (fun i ->
        Array.init np (fun j ->
            ( R.get_equiv_acc ref_idx probes.(i) probes.(j),
              R.get_call_acc ref_idx ~call:probes.(i) ~mem:probes.(j) )))
  in
  let stop = Atomic.make false in
  let total_retries = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  let checked = Atomic.make 0 in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let fd = Unix.openfile pub.Hli_server.Shm.p_path [ Unix.O_RDWR ] 0 in
            let map () =
              let len = (Unix.fstat fd).Unix.st_size in
              Bigarray.array1_of_genarray
                (Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout
                   true [| len |])
            in
            let seg = ref (map ()) in
            while not (Atomic.get stop) do
              (* one seqlock-protected batch over the whole probe set:
                 a wide window so preemption lands inside it *)
              let g1 = F.generation !seg in
              if g1 land 1 = 1 then Atomic.incr total_retries
              else begin
                (if F.total_len !seg > Bigarray.Array1.dim !seg then
                   seg := map ());
                match
                  let ok = ref true in
                  for i = 0 to np - 1 do
                    for j = 0 to np - 1 do
                      let we, wc = oracle.(i).(j) in
                      if
                        F.get_equiv_acc !seg probes.(i) probes.(j) <> we
                        || F.get_call_acc !seg ~call:probes.(i)
                             ~mem:probes.(j)
                           <> wc
                      then ok := false
                    done
                  done;
                  !ok
                with
                | ok ->
                    let g2 = F.generation !seg in
                    if g1 <> g2 then Atomic.incr total_retries
                    else begin
                      Atomic.incr checked;
                      if not ok then Atomic.incr mismatches
                    end
                | exception F.Torn -> Atomic.incr total_retries
              end
            done;
            Unix.close fd))
  in
  (* writer: rebuild storm alternating the two indexes *)
  let t0 = Unix.gettimeofday () in
  let flips = ref 0 in
  while
    Unix.gettimeofday () -. t0 < 20.0
    && not (Atomic.get total_retries > 0 && Atomic.get checked > 250)
  do
    Hli_server.Shm.rebuild pub ~hash (if !flips land 1 = 0 then idx1 else idx0);
    incr flips
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Hli_server.Shm.close pub;
  (try Unix.unlink pub.Hli_server.Shm.p_path with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if Atomic.get mismatches > 0 then
    fail "torture: %d settled answers mismatched the oracle"
      (Atomic.get mismatches);
  if Atomic.get total_retries = 0 then
    fail "torture: generation retries = 0 — the race was never exercised";
  if Atomic.get checked = 0 then fail "torture: no settled reads at all";
  Printf.printf
    "torture: %d rebuilds, %d settled batches, %d generation retries, 0 \
     mismatches\n"
    !flips (Atomic.get checked)
    (Atomic.get total_retries)

(* ------------------------------------------------------------------ *)

let () =
  let truncs = ref 0 and muts_done = ref 0 and gen_checked = ref 0 in
  let nworkloads = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      incr nworkloads;
      let name = w.Workloads.Workload.name in
      let entries = entries_of_workload w in
      let wire = S.to_bytes { T.entries } in
      let hash = Digest.string wire in
      List.iter
        (fun (e : T.hli_entry) ->
          let seg = sealed hash e in
          (match F.validate ~expect_hash:hash seg with
          | () -> ()
          | exception ex ->
              fail "%s/%s: fresh segment failed validation: %s" name
                e.T.unit_name (Printexc.to_string ex));
          (* a wrong expected hash must be precise E0634 *)
          (match F.validate ~expect_hash:(Digest.string "other") seg with
          | () -> fail "%s/%s: wrong hash accepted" name e.T.unit_name
          | exception S.Corrupt c ->
              if c.S.c_code <> "E0634" then
                fail "%s/%s: wrong hash rejected as %s, want E0634" name
                  e.T.unit_name c.S.c_code);
          (* the version gate: a version-4 image (per-mille alias
             cells) is refused, by its version *)
          let v4 = F.seg_of_bytes (bytes_of_seg seg) in
          v4.{4} <- 4;
          (match F.validate ~expect_hash:hash v4 with
          | () -> fail "%s/%s: version-4 segment accepted" name e.T.unit_name
          | exception S.Corrupt c ->
              if c.S.c_code <> "E0631" || c.S.c_msg <> "unknown HLIX version 4 (expected 5)"
              then
                fail "%s/%s: version-4 segment rejected as %s (%s), want E0631" name
                  e.T.unit_name c.S.c_code c.S.c_msg);
          differential name e (R.build e) seg)
        entries;
      (* sweeps on the first (largest-coverage) entry per workload *)
      match entries with
      | e :: _ ->
          let bytes = bytes_of_seg (sealed hash e) in
          truncations name hash bytes truncs;
          geometry name hash bytes;
          mutations name hash (R.build e)
            ~probe:(take 4 (items_of_entry e))
            bytes
            ~muts:(max 32 (iters / 2))
            muts_done gen_checked
      | [] -> ())
    Workloads.Registry.all;
  torture ();
  if !failures > 0 then begin
    Printf.eprintf "flatindex: %d failure(s) (FUZZ_SEED=%d FUZZ_ITERS=%d)\n"
      !failures seed iters;
    exit 1
  end;
  Printf.printf
    "flatindex: %d workloads: differential ok, %d truncations, %d mutations \
     (%d in the gen word) rejected/ignored correctly\n"
    !nworkloads !truncs !muts_done !gen_checked
