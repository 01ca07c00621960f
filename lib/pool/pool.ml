(** Fixed-size OCaml 5 domain pool for the harness.

    The paper's evaluation is "embarrassingly parallel": 14 workloads ×
    4 variants are independent compile+simulate runs, so the harness
    fans them out across domains and reassembles results in submission
    order — output is byte-identical to a sequential run.

    Design notes:
    - [create ~jobs] spawns [jobs - 1] worker domains; the calling
      domain is the remaining worker.  [~jobs:1] therefore spawns no
      domains at all and {!map} degenerates to a strict left-to-right
      [List.map] — the deterministic reference path the tests compare
      against.
    - {!map} is re-entrant: a task may itself call {!map} on the same
      pool.  While waiting for its own batch, a submitter {e helps}: it
      drains whatever task is queued, so nested batches can never
      deadlock the fixed-size pool.  The harness maps one level only,
      whole workloads ([Harness.Tables.run_all]): a helping submitter
      runs whatever was queued first, so a nested sub-batch could wait
      behind a whole other workload.
    - Every task runs to completion even when a sibling raises; the
      first exception (in submission order) is re-raised to the
      submitter once the batch is done, matching what a sequential run
      would have reported.
    - A live pool holds its worker domains' cores in a process-wide
      budget ({!take_core}); the simulator starts a helper domain only
      on a core that no pool holds. *)

type job = unit -> unit

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (** signaled on enqueue and on batch completion *)
  queue : job Queue.t;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

(** Worker count for [-j]/[HLI_JOBS]: the env var (a positive integer)
    wins, else [Domain.recommended_domain_count ()].  A malformed value
    ([HLI_JOBS=0], [HLI_JOBS=abc]) still falls back, but the fallback
    is reported: [default_jobs_checked] returns the E1012 warning
    alongside the count, and [default_jobs] prints it to stderr. *)
let default_jobs_checked () =
  match Sys.getenv_opt "HLI_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> (n, None)
      | Some _ | None when String.trim s = "" ->
          (* unset-by-convention: empty string is how callers clear the
             variable (Unix.putenv cannot remove it), not a typo *)
          (Domain.recommended_domain_count (), None)
      | Some _ | None ->
          let d =
            Diagnostics.make ~code:"E1012" ~phase:Diagnostics.Driver
              ~severity:Diagnostics.Warning
              (Printf.sprintf
                 "HLI_JOBS=%S is not a positive integer; using the \
                  recommended domain count (%d)"
                 s
                 (Domain.recommended_domain_count ()))
          in
          (Domain.recommended_domain_count (), Some d))
  | None -> (Domain.recommended_domain_count (), None)

let default_jobs () =
  let jobs, warning = default_jobs_checked () in
  Option.iter (fun d -> Fmt.epr "%a@." Diagnostics.pp d) warning;
  jobs

(* Domains at work: the main one, every live pool's workers and the
   simulator's helpers.  [Domain.recommended_domain_count ()] honours
   the process's CPU affinity, so under [taskset -c 1] no core is ever
   spare. *)
let busy = Atomic.make 1

(** Take a spare core for a helper domain: [false] when the domains at
    work already fill every core.  Give it back with {!give_core}. *)
let rec take_core () =
  let n = Atomic.get busy in
  n < Domain.recommended_domain_count ()
  && (Atomic.compare_and_set busy n (n + 1) || take_core ())

let give_core () = Atomic.decr busy

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if t.shutdown then None
    else
      match Queue.take_opt t.queue with
      | Some j -> Some j
      | None ->
          Condition.wait t.cond t.mutex;
          next ()
  in
  let j = next () in
  Mutex.unlock t.mutex;
  match j with
  | None -> ()
  | Some j ->
      (* a raising job must not kill the worker: [map] tasks catch
         their own exceptions, and [submit] jobs are fire-and-forget *)
      (try j () with _ -> ());
      worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      shutdown = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  ignore (Atomic.fetch_and_add busy (List.length t.workers));
  t

let size t = 1 + List.length t.workers

(** [submit t job] hands one fire-and-forget task to the pool.  With no
    worker domains ([~jobs:1]) the task runs inline, preserving the
    sequential reference semantics.  The caller is responsible for any
    completion signalling; an exception escaping [job] is dropped by
    the worker loop, so jobs that care must catch their own.

    This is the hlid event loop's dispatch edge: the poller submits
    per-connection queue drains here, so a slow job occupies one
    worker, never the poller.  Such jobs must not call {!map} on the
    same pool (a worker that helps its own batch is fine, but a
    [submit]ted job awaiting another batch could starve the queue). *)
let submit t (job : job) =
  if t.workers = [] then job ()
  else begin
    Mutex.lock t.mutex;
    Queue.add job t.queue;
    Condition.signal t.cond;
    Mutex.unlock t.mutex
  end

(** Stop the workers and join them.  Pending tasks of an in-flight
    {!map} are still drained by their submitter, so only call this once
    no batch is outstanding. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  ignore (Atomic.fetch_and_add busy (-List.length t.workers));
  t.workers <- []

(** [map t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in the order of [xs].  If any application
    raised, the exception of the smallest index is re-raised (with its
    backtrace) after the whole batch has finished. *)
let map (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let results :
      ('b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let remaining = Atomic.make n in
  let run_one i =
    let r =
      try Ok (f arr.(i))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    results.(i) <- Some r;
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      (* last task of the batch: wake any submitter blocked in [help] *)
      Mutex.lock t.mutex;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end
  in
  if n > 0 then begin
    if t.workers = [] then
      (* sequential reference path: no queueing, strict order *)
      for i = 0 to n - 1 do
        run_one i
      done
    else begin
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.add (fun () -> run_one i) t.queue
      done;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      (* help until our batch is done: run any queued task (possibly
         from a nested batch) rather than blocking a pool slot *)
      let rec help () =
        if Atomic.get remaining > 0 then begin
          Mutex.lock t.mutex;
          let j =
            match Queue.take_opt t.queue with
            | Some j -> Some j
            | None ->
                if Atomic.get remaining > 0 then Condition.wait t.cond t.mutex;
                Queue.take_opt t.queue
          in
          Mutex.unlock t.mutex;
          (match j with Some j -> j () | None -> ());
          help ()
        end
      in
      help ()
    end
  end;
  let out =
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> Ok v
           | Some (Error e) -> Error e
           | None -> assert false (* batch completed: every slot filled *))
         results)
  in
  (match
     List.find_opt (function Error _ -> true | Ok _ -> false) out
   with
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | _ -> ());
  List.map (function Ok v -> v | Error _ -> assert false) out

(** [map_opt pool f xs]: {!map} through [pool] when one is given, plain
    [List.map] otherwise. *)
let map_opt pool f xs =
  match pool with Some p -> map p f xs | None -> List.map f xs
