#!/bin/sh
# hlid --stats-json with an unwritable path must fail at startup,
# before the socket is bound: a nonzero exit and a one-line message
# naming the path, not a whole serving life that ends in an uncaught
# Sys_error at shutdown with the run's telemetry lost.
# Usage: hlid_stats_json.sh HLID
set -u

hlid="$1"
case "$hlid" in
  /*) ;;
  *) hlid="./$hlid" ;;
esac

tmp="${TMPDIR:-/tmp}/hlid-stats-json-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

out="$tmp/missing/x.json"
timeout 10 "$hlid" --socket "$tmp/h.sock" --stats-json "$out" 2> "$tmp/err"
code=$?

fail() {
  echo "hlid-stats-json: FAIL — $1" >&2
  cat "$tmp/err" >&2
  exit 1
}
# 124 = still listening when the timeout fired
if [ "$code" -eq 0 ] || [ "$code" -eq 124 ]; then
  fail "exit code $code, want a startup failure"
fi
grep -qF "$out" "$tmp/err" || fail "stderr does not name $out"
if grep -q "uncaught exception" "$tmp/err"; then
  fail "uncaught exception"
fi
echo "hlid-stats-json: OK (an unwritable path fails at startup, exit $code)"
