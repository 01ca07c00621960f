#!/bin/sh
# hlic --run reports a simulated program's runtime fault as a Sim-phase
# diagnostic (error[E0902], exit 5), not as an uncaught exception.
# Usage: hlic_runtime_error.sh HLIC
set -eu

hlic="$1"
case "$hlic" in
  /*) ;;
  *) hlic="./$hlic" ;;
esac

tmp="${TMPDIR:-/tmp}/hli-runerr-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/t.c" <<'SRC'
int main() { int z; z = 0; return 1 % z; }
SRC

status=0
"$hlic" "$tmp/t.c" --run > "$tmp/out" 2> "$tmp/err" || status=$?
fail() {
  echo "hlic-runtime-error: FAIL — $1" >&2
  cat "$tmp/err" >&2
  exit 1
}
[ "$status" -eq 5 ] || fail "exit $status, want 5"
grep -q 'error\[E0902\]' "$tmp/err" || fail "no error[E0902] on stderr"
grep -q 'modulo by zero' "$tmp/err" || fail "no 'modulo by zero' on stderr"
if grep -q 'internal error' "$tmp/err"; then fail "an internal error"; fi
echo "hlic-runtime-error: OK (a runtime fault is error[E0902], exit 5)"
