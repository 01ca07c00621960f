#!/bin/sh
# CI check for the speculative scheduler (dune alias @specbench).
#
#   1. runs a workload subset through bench tables plain and with
#      --speculate 0: threshold 0 can never drop an edge, so the two
#      runs must be byte-identical (speculation off is free);
#   2. starts one hlid (with --stats-json) and re-runs the tables
#      with --speculate 1000 in-process and over the wire — Q_prob
#      service must be invisible in the output, and the remote
#      telemetry dump must be at this binary's hli-telemetry version
#      (--validate-json rejects any other by name) and carry the
#      equiv_prob counter and the speculation object; the hlid is then
#      stopped with SIGTERM and its own telemetry dump must pass
#      --validate-json;
#   3. validates the committed BENCH_speculate.json sweep artifact:
#      schema, per-workload sweep keys, all workloads present, at
#      least one dropped edge at the top threshold, and a
#      misspeculation-rate ceiling of $SPECBENCH_MISSPEC_CEIL
#      (default 0.01) at the default threshold 0.5.
set -eu

exe="$1"
case "$exe" in
  /*) ;;
  *) exe="./$exe" ;;
esac
hlid="$2"
case "$hlid" in
  /*) ;;
  *) hlid="./$hlid" ;;
esac
artifact="$3"

tmp="${TMPDIR:-/tmp}/hli-specbench-$$"
mkdir -p "$tmp"
hlid_pid=""
cleanup() {
  [ -n "$hlid_pid" ] && kill -9 "$hlid_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# 034.mdljdp2 is in the subset on purpose: it is one of the two
# workloads whose maybe edges actually drop at threshold 1.0, so the
# remote runs exercise Q_prob with consequences
WORKLOADS="wc,129.compress,101.tomcatv,034.mdljdp2"
FUEL=500000

# 1: --speculate 0 is the identity
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 \
  > "$tmp/plain.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 --speculate 0 \
  > "$tmp/spec0.out" 2>/dev/null
if ! cmp -s "$tmp/plain.out" "$tmp/spec0.out"; then
  echo "specbench: FAIL — --speculate 0 tables differ from the plain run" >&2
  diff "$tmp/plain.out" "$tmp/spec0.out" >&2 || true
  exit 1
fi
echo "specbench: OK (--speculate 0 is byte-identical to speculation off)"

# 2: the probabilistic wire path must be invisible in the tables
sock="$tmp/hlid.sock"
"$hlid" --socket "$sock" -j 2 --stats-json "$tmp/hlid.json" \
  2>>"$tmp/hlid.log" &
hlid_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$sock" ] || { echo "specbench: FAIL — $sock did not come up" >&2; exit 1; }

"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 --speculate 1000 \
  > "$tmp/spec-local.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 --speculate 1000 \
  --remote "$sock" --stats-json "$tmp/spec-remote.json" \
  > "$tmp/spec-remote.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 --speculate 0 \
  --remote "$sock" \
  > "$tmp/spec0-remote.out" 2>/dev/null

# SIGTERM drains the sessions and flushes hlid's own telemetry dump,
# which must carry the harness's schema tag
kill -TERM "$hlid_pid"
wait "$hlid_pid" || { echo "specbench: FAIL — hlid did not exit cleanly" >&2; exit 1; }
hlid_pid=""
"$exe" --validate-json "$tmp/hlid.json" > /dev/null \
  || { echo "specbench: FAIL — hlid --stats-json dump rejected by --validate-json" >&2
       exit 1; }

if ! cmp -s "$tmp/spec-local.out" "$tmp/spec-remote.out"; then
  echo "specbench: FAIL — speculative remote tables differ from the in-process run" >&2
  diff "$tmp/spec-local.out" "$tmp/spec-remote.out" >&2 || true
  exit 1
fi
if ! cmp -s "$tmp/plain.out" "$tmp/spec0-remote.out"; then
  echo "specbench: FAIL — remote --speculate 0 tables differ from the plain run" >&2
  diff "$tmp/plain.out" "$tmp/spec0-remote.out" >&2 || true
  exit 1
fi
# --validate-json rejects a dump at any other hli-telemetry version by
# name, so the grep only has to make sure the dump carries the tag
"$exe" --validate-json "$tmp/spec-remote.json" > /dev/null \
  || { echo "specbench: FAIL — malformed remote --stats-json" >&2; exit 1; }
grep -q '"schema":"hli-telemetry-v' "$tmp/spec-remote.json" \
  || { echo "specbench: FAIL — remote dump carries no hli-telemetry schema tag" >&2; exit 1; }
# the dump carries one row per workload: only some drop edges or issue
# Q_prob, so gate on the max across rows, not the first
probed=$(grep -o '"equiv_prob":[0-9]*' "$tmp/spec-remote.json" | cut -d: -f2 \
  | sort -n | tail -1)
[ "${probed:-0}" -gt 0 ] \
  || { echo "specbench: FAIL — remote run answered no Q_prob queries" >&2; exit 1; }
dropped=$(grep -o '"speculation":{"edges_dropped":[0-9]*' "$tmp/spec-remote.json" \
  | grep -o '[0-9]*$' | sort -n | tail -1)
[ "${dropped:-0}" -gt 0 ] \
  || { echo "specbench: FAIL — no edges dropped at threshold 1.0 on the remote path" >&2
       exit 1; }
echo "specbench: OK (speculative tables byte-identical: local and wire; $probed Q_prob answers, $dropped edges dropped; hlid dump valid)"

# 3: the committed sweep artifact is well-formed and within the
# misspeculation budget at the default threshold
"$exe" --validate-json "$artifact" > /dev/null \
  || { echo "specbench: FAIL — malformed $artifact" >&2; exit 1; }
grep -q '"schema":"hli-specbench-v1"' "$artifact" \
  || { echo "specbench: FAIL — $artifact lacks the hli-specbench-v1 schema" >&2
       exit 1; }
for key in '"edges_dropped":' '"misspec_rate":' '"speedup_r4600":' '"speedup_r10000":'; do
  grep -q "$key" "$artifact" \
    || { echo "specbench: FAIL — $artifact lacks $key rows" >&2; exit 1; }
done
nwork=$(grep -o '"name":' "$artifact" | wc -l)
[ "$nwork" -ge 14 ] \
  || { echo "specbench: FAIL — sweep covers $nwork workloads, expected all 14" >&2
       exit 1; }
grep -q '"failure":' "$artifact" \
  && { echo "specbench: FAIL — sweep artifact carries failed workloads" >&2; exit 1; }
top_drop=$(grep -o '"threshold":1000,"edges_dropped":[0-9]*' "$artifact" \
  | grep -o '[0-9]*$' | sort -n | tail -1)
[ "${top_drop:-0}" -gt 0 ] \
  || { echo "specbench: FAIL — no workload drops an edge at threshold 1.0" >&2
       exit 1; }
ceil="${SPECBENCH_MISSPEC_CEIL:-0.01}"
bad=$(grep -o '"threshold":500,"edges_dropped":[0-9]*,"checks":[0-9]*,"misspeculations":[0-9]*,"misspec_rate":[0-9.]*' \
  "$artifact" | grep -o '[0-9.]*$' \
  | awk -v c="$ceil" '$1 > c { n++ } END { printf "%d", n }')
if [ "${bad:-0}" -gt 0 ]; then
  echo "specbench: FAIL — $bad workload(s) exceed the $ceil misspeculation-rate ceiling at threshold 0.5" >&2
  exit 1
fi
echo "specbench: OK ($artifact valid: $nwork workloads, max $top_drop edges dropped at 1.0, misspec rate <= $ceil at 0.5)"
