(* Fuzz/differential harness for the HLI serializer.

   Four corpora, one rule: the reader must either return a value or
   raise [Serialize.Corrupt] — any other exception, or accepting bytes
   it cannot faithfully re-encode, is a bug.

   1. Random HLI files from the shared generator (test/testgen.ml),
      including the Some-0 boundary values: the container must
      round-trip exactly, and [Serialize.size_bytes] must equal the
      length of the old HLI1 encoding ([Testgen.Old_hli1], the oracle
      for Table 1's size).
   2. Truncations of every workload's encoded container at every
      prefix length: a strict prefix can never decode.
   3. Deterministic single-byte mutations of the same containers: a
      mutant that decodes must re-encode to a value equal to itself,
      and the structural validator must not crash on it.
   4. The same mutations on bare entry payloads.  The container's CRC32
      rejects every payload flip in 3, so this is where the entry
      decoder's tag and bound checks see hostile bytes.  Each mutant
      goes to [Serialize.entry_of_bytes] directly and, re-framed with a
      valid CRC by [container_of_payloads], to [of_bytes]; both must
      agree, and survivors follow the rules of 3.

   Runs under dune runtest with a modest default budget; the @fuzz
   alias (pulled into @smoke) raises it via FUZZ_ITERS.  FUZZ_SEED
   varies the deterministic stream. *)

module T = Hli_core.Tables

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let iters = env_int "FUZZ_ITERS" 100
let seed = env_int "FUZZ_SEED" 0x484c49 (* "HLI" *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL: " ^ m))
    fmt

(* deterministic 48-bit LCG so a failing run reproduces exactly *)
let rng = ref seed

let rand_int bound =
  rng := ((!rng * 25214903917) + 11) land 0xffffffffffff;
  (!rng lsr 16) mod bound

type outcome = Decoded of T.hli_file | Rejected | Crashed of exn

let decode b =
  match Hli_core.Serialize.of_bytes b with
  | f -> Decoded f
  | exception Hli_core.Serialize.Corrupt _ -> Rejected
  | exception e -> Crashed e

(* phase 1: randomized generation: round-trip and the size oracle *)
let random_files () =
  let rand = Random.State.make [| seed |] in
  let n = max 50 iters in
  for _ = 1 to n do
    let f = QCheck.Gen.generate1 ~rand (Testgen.gen_file ~allow_zero:true ()) in
    (match decode (Hli_core.Serialize.to_bytes f) with
    | Decoded f' when f' = f -> ()
    | Decoded _ -> fail "random file: round-trip mismatch"
    | Rejected -> fail "random file: encoding rejected"
    | Crashed e ->
        fail "random file: decoder crashed: %s" (Printexc.to_string e));
    match
      ( Hli_core.Serialize.size_bytes f,
        String.length (Testgen.Old_hli1.to_bytes f) )
    with
    | size, oracle ->
        if size <> oracle then
          fail "random file: size_bytes %d, HLI1 oracle %d bytes" size oracle
    | exception e ->
        fail "random file: size_bytes crashed: %s" (Printexc.to_string e)
  done;
  Printf.printf "fuzz: %d random files (round-trip + HLI1 size oracle)\n" n

(* phases 2-4: truncation and mutation over the workload corpus *)
let corpus () =
  List.map
    (fun w ->
      let prog =
        Srclang.Typecheck.program_of_string w.Workloads.Workload.source
      in
      let entries = Harness.Pipeline.build_hli_entries prog in
      (w.Workloads.Workload.name, { T.entries }))
    Workloads.Registry.all

let truncations name bytes counter =
  for len = 0 to String.length bytes - 1 do
    incr counter;
    match decode (String.sub bytes 0 len) with
    | Rejected -> ()
    | Decoded _ -> fail "%s: strict prefix of length %d decoded" name len
    | Crashed e ->
        fail "%s: truncation at %d crashed: %s" name len (Printexc.to_string e)
  done

(* flip one byte of [s] at a random position with a random nonzero
   mask; returns the mutant, the position and the mask *)
let mutate s =
  let pos = rand_int (String.length s) in
  let x = 1 + rand_int 255 in
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
  (Bytes.to_string b, pos, x)

(* a decoded mutant must re-round-trip, and the validator must not
   crash on it *)
let check_survivor name pos f' =
  (match decode (Hli_core.Serialize.to_bytes f') with
  | Decoded f'' when f'' = f' -> ()
  | _ -> fail "%s: surviving mutant at byte %d fails re-round-trip" name pos);
  match Hli_core.Validate.check_file f' with
  | _issues -> () (* issues are fine; crashing is not *)
  | exception e ->
      fail "%s: validator crashed on mutant: %s" name (Printexc.to_string e)

let mutations name bytes ~muts ~survivors =
  for _ = 1 to iters do
    incr muts;
    let m, pos, x = mutate bytes in
    match decode m with
    | Rejected -> ()
    | Crashed e ->
        fail "%s: mutation at byte %d (xor %#x) crashed: %s" name pos x
          (Printexc.to_string e)
    | Decoded f' ->
        incr survivors;
        check_survivor name pos f'
  done

let payload_mutations name payloads ~muts ~survivors =
  let payloads = Array.of_list payloads in
  for _ = 1 to iters do
    incr muts;
    let m, pos, x = mutate payloads.(rand_int (Array.length payloads)) in
    let direct =
      match Hli_core.Serialize.entry_of_bytes m with
      | e -> Decoded { T.entries = [ e ] }
      | exception Hli_core.Serialize.Corrupt _ -> Rejected
      | exception e -> Crashed e
    in
    match (direct, decode (Hli_core.Serialize.container_of_payloads [ m ])) with
    | Rejected, Rejected -> ()
    | Crashed e, _ | _, Crashed e ->
        fail "%s: payload mutation at byte %d (xor %#x) crashed: %s" name pos
          x (Printexc.to_string e)
    | Decoded f', Decoded f'' when f' = f'' ->
        incr survivors;
        check_survivor name pos f'
    | _ ->
        fail "%s: payload mutation at byte %d (xor %#x): entry_of_bytes and \
              of_bytes disagree" name pos x
  done

let () =
  random_files ();
  let corpus = corpus () in
  let truncs = ref 0 and muts = ref 0 and survivors = ref 0 in
  let pmuts = ref 0 and psurvivors = ref 0 in
  List.iter
    (fun (name, f) ->
      let bytes = Hli_core.Serialize.to_bytes f in
      truncations name bytes truncs;
      mutations name bytes ~muts ~survivors;
      payload_mutations (name ^ "/payload")
        (List.map Hli_core.Serialize.entry_to_bytes f.T.entries)
        ~muts:pmuts ~survivors:psurvivors)
    corpus;
  Printf.printf
    "fuzz: %d workloads: %d truncations, %d container mutations (%d \
     decoded), %d payload mutations (%d decoded); every decoded mutant \
     re-round-tripped\n"
    (List.length corpus) !truncs !muts !survivors !pmuts !psurvivors;
  if !failures > 0 then begin
    Printf.eprintf "fuzz: %d failure(s) (FUZZ_SEED=%d FUZZ_ITERS=%d)\n"
      !failures seed iters;
    exit 1
  end
