(** Order statistics and the regression rule of the end-to-end
    benchmark.

    Percentiles are nearest-rank (a reported latency is one that was
    actually measured).  Quartiles follow Python's
    [statistics.quantiles(values, n=4)] (its default "exclusive"
    method) exactly, so spreads computed here and by external tooling
    agree. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* the epsilon keeps e.g. 0.9 *. 100. from rounding up a rank *)
let rank p n = max 1 (min n (int_of_float (ceil ((p *. float_of_int n) -. 1e-9))))

(** Nearest-rank [p]-quantile ([0 < p <= 1]) of a non-empty sample. *)
let percentile p xs =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  (sorted xs).(rank p (Array.length xs) - 1)

let median xs = percentile 0.5 xs

(** Samples strictly above the nearest-rank [p]-quantile of [n]
    samples; a percentile is worth reporting when this is at least 10. *)
let samples_beyond p n = n - rank p n

(** [(q1, q2, q3)] as [statistics.quantiles(xs, n=4)] computes them;
    a single sample is its own quartiles. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: empty sample"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(** Quartile distance as a share of the median (0 for a constant
    sample). *)
let rel_iqr xs =
  let s = iqr xs and m = median xs in
  if s = 0. then 0. else if m = 0. then infinity else s /. Float.abs m

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

let geomean xs =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (max 1 (Array.length xs)))

(** {2 Verdicts} *)

type direction = Higher | Lower

let direction_of_string = function
  | "higher" -> Higher
  | "lower" -> Lower
  | s -> invalid_arg ("Stats.direction_of_string: " ^ s)

type verdict = Better | Worse | Unresolved | Same

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Same -> "same"

(** Judge [change] runs against [base] runs of one metric.  Runs pair
    up by index (the same seed on both sides).

    - [Better]: the change wins at least 9/10 of the pairs (ties count
      for neither) and its median differs from the base median by more
      than the base's quartile distance.
    - [Worse]: the change's median is worse than the base median by
      more than [bound] (a share of the base median).
    - [Unresolved]: within the bound, but either side's quartile
      spread is wider than the bound, unless every change run beats
      every base run.
    - [Same]: otherwise. *)
let beats direction x y = match direction with Lower -> x < y | Higher -> x > y

(** [(wins, pairs)]: pairs [(base.(i), change.(i))] the change wins. *)
let pair_wins ~direction ~base ~change =
  let pairs = min (Array.length base) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats direction change.(i) base.(i) then incr wins
  done;
  (!wins, pairs)

let verdict ~direction ~bound ~base ~change =
  let beats = beats direction in
  let mb = median base and mc = median change in
  let worse_by =
    if mb = 0. then if beats mb mc then infinity else 0.
    else
      match direction with
      | Lower -> (mc -. mb) /. Float.abs mb
      | Higher -> (mb -. mc) /. Float.abs mb
  in
  let wins, pairs = pair_wins ~direction ~base ~change in
  let all_beat =
    Array.for_all (fun c -> Array.for_all (fun b -> beats c b) base) change
  in
  if pairs > 0 && 10 * wins >= 9 * pairs && beats mc mb
     && Float.abs (mc -. mb) > iqr base
  then Better
  else if worse_by > bound then Worse
  else if Float.max (rel_iqr base) (rel_iqr change) > bound && not all_beat then
    Unresolved
  else Same
