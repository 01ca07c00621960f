#!/bin/sh
# An unwritable --stats-json path must fail before any work:
#   - hlid at startup, before the socket is bound: a nonzero exit and a
#     one-line message naming the path, not a whole serving life that
#     ends in an uncaught Sys_error at shutdown with the run's
#     telemetry lost;
#   - hlic before compiling: a nonzero exit, the path on stderr and
#     nothing on stdout (no query line, program output or cycle line
#     from a run whose dump is lost).  A compile that ends in a
#     diagnostic leaves no empty dump behind.
# Usage: hlid_stats_json.sh HLID HLIC
set -u

hlid="$1"
case "$hlid" in
  /*) ;;
  *) hlid="./$hlid" ;;
esac
hlic="$2"
case "$hlic" in
  /*) ;;
  *) hlic="./$hlic" ;;
esac

tmp="${TMPDIR:-/tmp}/hlid-stats-json-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "hlid-stats-json: FAIL — $1" >&2
  cat "$tmp/err" >&2
  exit 1
}

out="$tmp/missing/x.json"
timeout 10 "$hlid" --socket "$tmp/h.sock" --stats-json "$out" 2> "$tmp/err"
code=$?

# 124 = still listening when the timeout fired
if [ "$code" -eq 0 ] || [ "$code" -eq 124 ]; then
  fail "hlid exit code $code, want a startup failure"
fi
grep -qF "$out" "$tmp/err" || fail "hlid stderr does not name $out"
if grep -q "uncaught exception" "$tmp/err"; then
  fail "hlid uncaught exception"
fi
echo "hlid-stats-json: OK (an unwritable path fails hlid at startup, exit $code)"

cat > "$tmp/loop.c" <<'SRC'
int a[10];
void main()
{
  int i;
  for (i = 1; i < 10; i++)
    a[i] = a[i-1] + i;
  print_int(a[9]);
}
SRC

out="$tmp/missing/t.json"
timeout 60 "$hlic" --run --stats-json "$out" "$tmp/loop.c" \
  > "$tmp/out" 2> "$tmp/err"
code=$?
if [ "$code" -eq 0 ] || [ "$code" -eq 124 ]; then
  fail "hlic exit code $code, want a failure before compiling"
fi
grep -qF "$out" "$tmp/err" || fail "hlic stderr does not name $out"
[ -s "$tmp/out" ] && fail "hlic compiled before failing: stdout $(head -c 200 "$tmp/out")"
hlic_code=$code

printf 'void main()\n{\n  print_int(undeclared);\n}\n' > "$tmp/bad.c"
out="$tmp/bad.json"
timeout 60 "$hlic" --stats-json "$out" "$tmp/bad.c" > /dev/null 2> "$tmp/err"
code=$?
[ "$code" -eq 0 ] && fail "hlic compiled a program with an undeclared variable"
[ -e "$out" ] && fail "a failed compile left $out behind"
echo "hlid-stats-json: OK (an unwritable path fails hlic before compiling, exit $hlic_code)"
