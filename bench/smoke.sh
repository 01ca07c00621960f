#!/bin/sh
# CI smoke check for the parallel workload harness (dune alias @smoke).
#
# Runs two small workloads through bench/main.exe both sequentially
# (-j 1) and with -j 4, which maps them over a pool of two domains (one
# per workload), then checks that
#   1. the Table 1/2 output is byte-identical between the two runs,
#      with and without --passes cse,licm,unroll=4 (with a spare core,
#      -j 1 walks each group's schedules on a helper domain; on a
#      two-core machine the pool of two leaves no core spare, so there
#      this also compares the helper path with the helper-less one),
#   2. the --stats-json telemetry dump is well-formed JSON
#      (validated with the harness's own structural checker, since the
#      container has no external JSON tooling),
#   3. every workload's emitted HLI file passes hli_dump --check
#      (decode + structural validator), and
#   4. a cold and a warm run through the on-disk HLI cache
#      (--hli-cache) produce tables byte-identical to the uncached run,
#      with the expected hit/miss counters in the telemetry dump,
# and finally runs the ablation-config check.
# Usage: smoke.sh MAIN HLI_DUMP ABLATION_SH
set -eu

# dune runs us inside _build with relative exe paths; make them invocable
exe="$1"
case "$exe" in
  /*) ;;
  *) exe="./$exe" ;;
esac
dump="$2"
case "$dump" in
  /*) ;;
  *) dump="./$dump" ;;
esac

tmp="${TMPDIR:-/tmp}/hli-smoke-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

WORKLOADS="wc,129.compress"

"$exe" tables --workloads "$WORKLOADS" -j 1 --stats-json "$tmp/seq.json" \
  > "$tmp/seq.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" -j 4 --stats-json "$tmp/par.json" \
  > "$tmp/par.out" 2>/dev/null

if ! cmp -s "$tmp/seq.out" "$tmp/par.out"; then
  echo "smoke: FAIL — parallel tables differ from the sequential run" >&2
  diff "$tmp/seq.out" "$tmp/par.out" >&2 || true
  exit 1
fi

# the same under the optional passes, whose back-end prefix (lower
# through unroll) runs once per alias mode and is shared by both
# machines' schedules
PASSES="cse,licm,unroll=4"
"$exe" tables --workloads "$WORKLOADS" -j 1 --passes "$PASSES" \
  > "$tmp/seq-passes.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" -j 4 --passes "$PASSES" \
  > "$tmp/par-passes.out" 2>/dev/null

if ! cmp -s "$tmp/seq-passes.out" "$tmp/par-passes.out"; then
  echo "smoke: FAIL — parallel --passes $PASSES tables differ from -j 1" >&2
  diff "$tmp/seq-passes.out" "$tmp/par-passes.out" >&2 || true
  exit 1
fi

"$exe" --validate-json "$tmp/seq.json" > /dev/null \
  || { echo "smoke: FAIL — malformed sequential --stats-json" >&2; exit 1; }
"$exe" --validate-json "$tmp/par.json" > /dev/null \
  || { echo "smoke: FAIL — malformed parallel --stats-json" >&2; exit 1; }

echo "smoke: OK (parallel == sequential, also under --passes $PASSES; telemetry JSON valid)"

# every workload's HLI file must decode and pass the structural
# validator
"$exe" emit-hli --out "$tmp/hli" > /dev/null
for f in "$tmp/hli"/*.hli; do
  "$dump" --check "$f" > /dev/null \
    || { echo "smoke: FAIL — hli_dump --check rejected $f" >&2; exit 1; }
done
echo "smoke: OK (hli_dump --check over all workloads)"

# on-disk HLI cache: cold fills, warm replays; both runs' tables must
# be byte-identical to the uncached run
"$exe" tables --workloads "$WORKLOADS" -j 1 --hli-cache "$tmp/cache" \
  --stats-json "$tmp/cold.json" > "$tmp/cold.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" -j 1 --hli-cache "$tmp/cache" \
  --stats-json "$tmp/warm.json" > "$tmp/warm.out" 2>/dev/null

for run in cold warm; do
  if ! cmp -s "$tmp/seq.out" "$tmp/$run.out"; then
    echo "smoke: FAIL — $run-cache tables differ from the uncached run" >&2
    diff "$tmp/seq.out" "$tmp/$run.out" >&2 || true
    exit 1
  fi
  "$exe" --validate-json "$tmp/$run.json" > /dev/null \
    || { echo "smoke: FAIL — malformed $run-cache --stats-json" >&2; exit 1; }
done

# the cache is per-function: a cold run misses once per function of
# the two workloads, a warm run hits the same count
grep -q '"hli_cache":{"hits":0,"misses":[1-9][0-9]*,"partial_hits":0,"trims":0}' \
  "$tmp/cold.json" \
  || { echo "smoke: FAIL — cold run should report 0 hits / all misses" >&2; exit 1; }
grep -q '"hli_cache":{"hits":[1-9][0-9]*,"misses":0,"partial_hits":0,"trims":0}' \
  "$tmp/warm.json" \
  || { echo "smoke: FAIL — warm run should report all hits / 0 misses" >&2; exit 1; }

echo "smoke: OK (HLI cache cold/warm byte-identical, counters present)"

# the ablation-config check rides along (@ablation runs it alone)
sh "$3" "$1"
