#!/bin/sh
# CI check for the hlid remote back-end (dune alias @servbench).
#
#   1. starts hlid on a private socket with a --shm-dir;
#   2. runs a workload subset through bench tables in-process, --remote,
#      --remote --pipeline 8, and --remote --shm, requiring
#      byte-identical Tables 1/2 on every path and a well-formed
#      telemetry dump carrying the "server" and "shm" objects;
#   3. runs a quick servbench (client subprocesses against a
#      Domain-spawned server) over both the wire and shm paths,
#      validates the emitted hli-servbench-v2 JSON, and enforces
#      batched-throughput floors: $SERVBENCH_FLOOR q/s on the wire
#      rows (default 530000 — 10x the PR 5 unbatched rate) and
#      $SERVBENCH_SHM_FLOOR q/s on the shm rows (default 2500000 —
#      half the recorded mmap'd-lookup rate, so box noise cannot
#      flake either gate);
#   4. kills the server with SIGKILL mid-probe and requires the client
#      to exit nonzero with a precise E11xx code, without hanging.
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

tmp="${TMPDIR:-/tmp}/hli-servbench-$$"
mkdir -p "$tmp"
sock="$tmp/hlid.sock"
hlid_pid=""
cleanup() {
  [ -n "$hlid_pid" ] && kill -9 "$hlid_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

WORKLOADS="wc,129.compress,101.tomcatv,034.mdljdp2"
FUEL=500000

"$hlid" --socket "$sock" -j 8 --shm-dir "$tmp/shm" 2>"$tmp/hlid.log" &
hlid_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$sock" ] || { echo "servbench: FAIL — hlid did not come up" >&2; exit 1; }

# 1+2: the wire service must be invisible in the tables — unpipelined
# and pipelined alike (pipelining changes scheduling, never answers)
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 \
  > "$tmp/local.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 \
  --remote "$sock" --stats-json "$tmp/remote.json" \
  > "$tmp/remote.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 \
  --remote "$sock" --pipeline 8 \
  > "$tmp/remote-p8.out" 2>/dev/null
"$exe" tables --workloads "$WORKLOADS" --fuel $FUEL -j 2 \
  --remote "$sock" --shm --stats-json "$tmp/shm.json" \
  > "$tmp/remote-shm.out" 2>/dev/null

if ! cmp -s "$tmp/local.out" "$tmp/remote.out"; then
  echo "servbench: FAIL — remote tables differ from the in-process run" >&2
  diff "$tmp/local.out" "$tmp/remote.out" >&2 || true
  exit 1
fi
if ! cmp -s "$tmp/local.out" "$tmp/remote-p8.out"; then
  echo "servbench: FAIL — pipelined remote tables differ from the in-process run" >&2
  diff "$tmp/local.out" "$tmp/remote-p8.out" >&2 || true
  exit 1
fi
if ! cmp -s "$tmp/local.out" "$tmp/remote-shm.out"; then
  echo "servbench: FAIL — shm tables differ from the in-process run" >&2
  diff "$tmp/local.out" "$tmp/remote-shm.out" >&2 || true
  exit 1
fi
"$exe" --validate-json "$tmp/remote.json" > /dev/null \
  || { echo "servbench: FAIL — malformed remote --stats-json" >&2; exit 1; }
grep -q '"server":{' "$tmp/remote.json" \
  || { echo "servbench: FAIL — remote dump lacks the server object" >&2; exit 1; }
"$exe" --validate-json "$tmp/shm.json" > /dev/null \
  || { echo "servbench: FAIL — malformed shm --stats-json" >&2; exit 1; }
grep -q '"shm":{"maps":' "$tmp/shm.json" \
  || { echo "servbench: FAIL — shm dump lacks the shm object" >&2; exit 1; }
grep -q '"shm":{"maps":0' "$tmp/shm.json" \
  && { echo "servbench: FAIL — shm run mapped no segments" >&2; exit 1; }
echo "servbench: OK (remote tables byte-identical: plain, pipelined and shm)"

# 3: quick benchmark (concurrent client subprocesses), with the bench
# artifact validated and a floor on batched remote throughput.  The
# server gets a roomy minor heap, as the recorded runs do.
OCAMLRUNPARAM="s=2M${OCAMLRUNPARAM:+,$OCAMLRUNPARAM}" \
  "$exe" servbench --workloads wc --pipeline 8 --shm --out "$tmp/bench.json" \
  > "$tmp/bench.out" 2>/dev/null
grep -q "q/s" "$tmp/bench.out" \
  || { echo "servbench: FAIL — no benchmark output" >&2; exit 1; }
"$exe" --validate-json "$tmp/bench.json" > /dev/null \
  || { echo "servbench: FAIL — malformed servbench JSON" >&2; exit 1; }
grep -q '"schema":"hli-servbench-v2"' "$tmp/bench.json" \
  || { echo "servbench: FAIL — bench JSON lacks the hli-servbench-v2 schema" >&2
       exit 1; }
grep -q '"path":"shm"' "$tmp/bench.json" \
  || { echo "servbench: FAIL — bench JSON lacks shm rows" >&2; exit 1; }
# rows: path clients batch pipeline qps p50 p99
floor="${SERVBENCH_FLOOR:-530000}"
best=$(awk '$1 == "wire" && $3 == 64 && $5 > m { m = $5 } END { printf "%d", m }' \
  "$tmp/bench.out")
if [ "${best:-0}" -lt "$floor" ]; then
  echo "servbench: FAIL — best batched wire throughput ${best:-0} q/s is under the $floor q/s floor" >&2
  cat "$tmp/bench.out" >&2
  exit 1
fi
shm_floor="${SERVBENCH_SHM_FLOOR:-2500000}"
shm_best=$(awk '$1 == "shm" && $3 == 64 && $5 > m { m = $5 } END { printf "%d", m }' \
  "$tmp/bench.out")
if [ "${shm_best:-0}" -lt "$shm_floor" ]; then
  echo "servbench: FAIL — best batched shm throughput ${shm_best:-0} q/s is under the $shm_floor q/s floor" >&2
  cat "$tmp/bench.out" >&2
  exit 1
fi
echo "servbench: OK (servbench ran, JSON valid, best batched wire $best q/s >= $floor, shm $shm_best q/s >= $shm_floor)"

# 4: kill the server mid-session; the probe must exit on its own,
# nonzero, with a protocol E-code on stderr — bounded, never a hang
(
  set +e
  "$exe" remote-probe --remote "$sock" > /dev/null 2>"$tmp/probe.err"
  echo $? > "$tmp/probe.code"
) &
probe_sh=$!
sleep 2
kill -9 "$hlid_pid" 2>/dev/null || true
hlid_pid=""
i=0
while [ ! -f "$tmp/probe.code" ] && [ $i -lt 200 ]; do
  sleep 0.1
  i=$((i + 1))
done
if [ ! -f "$tmp/probe.code" ]; then
  kill -9 "$probe_sh" 2>/dev/null || true
  echo "servbench: FAIL — probe hung after the server was killed" >&2
  exit 1
fi
wait "$probe_sh" 2>/dev/null || true
code=$(cat "$tmp/probe.code")
[ "$code" -ne 0 ] \
  || { echo "servbench: FAIL — probe exited 0 after server kill" >&2; exit 1; }
grep -q 'E11' "$tmp/probe.err" \
  || { echo "servbench: FAIL — probe stderr lacks an E11xx code" >&2
       cat "$tmp/probe.err" >&2; exit 1; }
echo "servbench: OK (server killed mid-session => probe exit $code, $(grep -o 'E11[0-9][0-9]' "$tmp/probe.err" | head -1))"
