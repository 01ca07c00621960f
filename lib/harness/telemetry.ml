(** Per-stage telemetry for the compilation/simulation pipeline.

    A {!t} accumulates monotonic-clock {e spans} (total nanoseconds +
    number of entries, keyed by stage name) and plain {e counters}.
    The store is mutex-protected so pipeline stages running on
    different {!Pool} domains can report into one workload's record;
    counts and span tallies are deterministic, elapsed times naturally
    are not (which is why timings are never part of the byte-identical
    table output — they only appear under [--stats]/[--stats-json]).

    The canonical pipeline stage names are listed in {!stage_order};
    reports print known stages in that order, then any others
    alphabetically. *)

type span_data = { mutable ns : int64; mutable count : int }

type t = {
  mutex : Mutex.t;
  spans : (string, span_data) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
}

(** Pipeline stage names, in pipeline order: the spans of the front
    end and the back end, listed once in
    {!Driver.Pass_manager.span_names}. *)
let stage_order = Driver.Pass_manager.span_names

let create () : t =
  {
    mutex = Mutex.create ();
    spans = Hashtbl.create 16;
    counters = Hashtbl.create 16;
  }

let now_ns () : int64 = Monotonic_clock.now ()

let add_span (t : t) name ns =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.spans name with
  | Some d ->
      d.ns <- Int64.add d.ns ns;
      d.count <- d.count + 1
  | None -> Hashtbl.replace t.spans name { ns; count = 1 });
  Mutex.unlock t.mutex

(** [span ?tm name f] runs [f ()], charging its wall-clock time to
    stage [name] of [tm].  Without [?tm] it is just [f ()] — pipeline
    code threads an optional record through unconditionally. *)
let span ?tm name f =
  match tm with
  | None -> f ()
  | Some t ->
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> add_span t name (Int64.sub (now_ns ()) t0))
        f

let count ?tm ?(n = 1) name =
  match tm with
  | None -> ()
  | Some t ->
      Mutex.lock t.mutex;
      (match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace t.counters name (ref n));
      Mutex.unlock t.mutex

let span_ns (t : t) name =
  match Hashtbl.find_opt t.spans name with Some d -> d.ns | None -> 0L

let span_count (t : t) name =
  match Hashtbl.find_opt t.spans name with Some d -> d.count | None -> 0

let counter (t : t) name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* known stages first (pipeline order), then the rest alphabetically *)
let span_names (t : t) =
  let known = List.filter (fun s -> Hashtbl.mem t.spans s) stage_order in
  let rest =
    Hashtbl.fold
      (fun k _ acc -> if List.mem k stage_order then acc else k :: acc)
      t.spans []
  in
  known @ List.sort compare rest

let counter_names (t : t) =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counters [])

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

(** One human-readable line per stage: total ms and entry count. *)
let pp_table ppf (t : t) =
  List.iter
    (fun name ->
      Fmt.pf ppf "%-26s %10.3f ms %6d calls@." name
        (ms_of_ns (span_ns t name))
        (span_count t name))
    (span_names t);
  List.iter
    (fun name -> Fmt.pf ppf "%-26s %17d@." name (counter t name))
    (counter_names t)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** JSON fragment ["spans":{...},"counters":{...}] — callers wrap it
    together with their own fields (workload name, failure, ...). *)
let json_fragment (t : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "\"spans\":{";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"ns\":%Ld,\"count\":%d}" (json_escape name)
           (span_ns t name) (span_count t name)))
    (span_names t);
  Buffer.add_string b "},\"counters\":{";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d" (json_escape name) (counter t name)))
    (counter_names t);
  Buffer.add_char b '}';
  Buffer.contents b

let to_json (t : t) = "{" ^ json_fragment t ^ "}"

(* ------------------------------------------------------------------ *)
(* Telemetry dump schema version                                       *)
(* ------------------------------------------------------------------ *)

(** Schema tag of [--stats-json] dumps.  v2 added the process-wide
    [query_cache] object and the per-workload [duplicates] count; v3
    added the per-workload [dropped] count (HLI entries whose unit has
    no RTL function) and per-pass spans ([backend.cse]/[licm]/[unroll]
    replace the aggregate [backend.passes]); v4 added the top-level
    [hli_cache] hit/miss object (the on-disk HLI cache of
    [--hli-cache]/[HLI_CACHE]), the per-workload
    [hli_cache_hits]/[hli_cache_misses] counters and the [hli.cache]
    span; v5 added the top-level [server] object (hlid wire-service
    telemetry: per-session query counts, batch sizes, p50/p99 service
    latency, rejected/timed-out frames — [null] for purely in-process
    runs); v6 added the top-level [shm] object (shared-memory fast
    path: segment maps, seqlock generation retries, wire fallbacks,
    mapped segment bytes — [null] unless a co-located [--shm] session
    ran) and, inside [server], the [shm] publish/rebuild counters; v7
    made the HLI cache per-function — [hli_cache_hits]/[hli_cache_misses]
    now count function entries rather than whole files — and added the
    [hli_cache_partial_hits] (compiles that mixed hits and misses) and
    [hli_cache_trims] (entries evicted by [--hli-cache-max-bytes])
    counters plus the [hli.fingerprint] span; v8 added the [equiv_prob]
    per-kind query counter (the probabilistic [Q_equiv_prob] engine
    query, and its [Q_prob] wire counterpart inside [server]) and the
    per-workload [speculation] object — DDG edges dropped by
    [--speculate], checks inserted, and misspeculation recoveries
    observed in simulation; v9 cut the [server] object's [queries] to
    the back end's four kinds (its [alias], [lcdd] and
    [region_of_item] counters are gone), and its [batches] now counts
    the probability queries' frames too, since they ride in [Batch]. *)
let schema_version = "hli-telemetry-v9"

(* first "schema" key in the dump (the emitters put it first) and its
   string value, scanned tolerantly so a pretty-printed dump still
   reports its version *)
let schema_of_json (s : string) : string option =
  let key = "\"schema\"" in
  let n = String.length s and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub s i k = key then Some (i + k)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let rec skip_ws i =
        if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r')
        then skip_ws (i + 1)
        else i
      in
      let i = skip_ws i in
      if i >= n || s.[i] <> ':' then None
      else
        let i = skip_ws (i + 1) in
        if i >= n || s.[i] <> '"' then None
        else
          let j = try String.index_from s (i + 1) '"' with Not_found -> n in
          if j >= n then None else Some (String.sub s (i + 1) (j - i - 1))

(** Version gate for telemetry dumps: a dump that declares another
    [hli-telemetry-*] schema (e.g. a v1 file from an older binary) is
    rejected with a version-specific message, so stale dumps stay
    diagnosable instead of failing generic validation.  JSON without a
    telemetry schema tag (or with an unrelated schema) passes — the
    caller's structural validation still applies. *)
let check_schema (s : string) : (unit, string) result =
  let prefix = "hli-telemetry-" in
  match schema_of_json s with
  | Some v
    when String.length v >= String.length prefix
         && String.sub v 0 (String.length prefix) = prefix
         && v <> schema_version ->
      Error
        (Printf.sprintf
           "telemetry schema mismatch: dump declares \"%s\" but this binary \
            reads \"%s\"; regenerate the dump with --stats-json"
           v schema_version)
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* JSON validation (for the smoke alias and tests: no external JSON    *)
(* dependency is available in the container)                           *)
(* ------------------------------------------------------------------ *)

exception Bad of string * int

(** Minimal RFC-8259 structural check.  Returns [Error (msg, pos)] on
    the first malformed construct; numbers are validated loosely. *)
let validate_json (s : string) : (unit, string * int) result =
  let n = String.length s in
  let bad msg i = raise (Bad (msg, i)) in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r')
    then skip_ws (i + 1)
    else i
  in
  let expect c i =
    if i < n && s.[i] = c then i + 1
    else bad (Printf.sprintf "expected '%c'" c) i
  in
  let rec value i =
    let i = skip_ws i in
    if i >= n then bad "unexpected end of input" i
    else
      match s.[i] with
      | '{' -> obj (i + 1)
      | '[' -> arr (i + 1)
      | '"' -> string_lit (i + 1)
      | 't' -> lit "true" i
      | 'f' -> lit "false" i
      | 'n' -> lit "null" i
      | '-' | '0' .. '9' -> number i
      | c -> bad (Printf.sprintf "unexpected character '%c'" c) i
  and lit word i =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then i + l
    else bad ("bad literal, expected " ^ word) i
  and number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    let digits k =
      let k0 = k in
      let k = ref k in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do
        incr k
      done;
      if !k = k0 then bad "expected digit" k0 else !k
    in
    j := digits !j;
    if !j < n && s.[!j] = '.' then j := digits (!j + 1);
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      let k = !j + 1 in
      let k = if k < n && (s.[k] = '+' || s.[k] = '-') then k + 1 else k in
      j := digits k
    end;
    !j
  and string_lit i =
    (* i is just past the opening quote *)
    if i >= n then bad "unterminated string" i
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then bad "unterminated escape" i
          else (
            match s.[i + 1] with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
                string_lit (i + 2)
            | 'u' ->
                if i + 5 >= n then bad "short \\u escape" i
                else begin
                  for k = i + 2 to i + 5 do
                    match s.[k] with
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                    | _ -> bad "bad \\u escape" k
                  done;
                  string_lit (i + 6)
                end
            | _ -> bad "bad escape" (i + 1))
      | c when Char.code c < 0x20 -> bad "control character in string" i
      | _ -> string_lit (i + 1)
  and obj i =
    let i = skip_ws i in
    if i < n && s.[i] = '}' then i + 1
    else
      let rec members i =
        let i = skip_ws i in
        let i = expect '"' i in
        let i = string_lit i in
        let i = skip_ws i in
        let i = expect ':' i in
        let i = value i in
        let i = skip_ws i in
        if i < n && s.[i] = ',' then members (i + 1)
        else expect '}' i
      in
      members i
  and arr i =
    let i = skip_ws i in
    if i < n && s.[i] = ']' then i + 1
    else
      let rec elems i =
        let i = value i in
        let i = skip_ws i in
        if i < n && s.[i] = ',' then elems (i + 1) else expect ']' i
      in
      elems i
  in
  match
    let i = value 0 in
    let i = skip_ws i in
    if i <> n then bad "trailing garbage" i
  with
  | () -> Ok ()
  | exception Bad (msg, pos) -> Error (msg, pos)
