#!/bin/sh
# hlic --emit-hli must report the length of the file it wrote (the HLI
# container), not Table 1's payload size.  Usage: emit_hli_size.sh HLIC
set -eu

hlic="$1"
case "$hlic" in
  /*) ;;
  *) hlic="./$hlic" ;;
esac

tmp="${TMPDIR:-/tmp}/hli-emit-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/t.c" <<'SRC'
int a[10];
int b[10];
void main()
{
  int i;
  for (i = 1; i < 10; i++)
    a[i] = a[i-1] + b[i];
  print_int(a[9]);
}
SRC

got=$("$hlic" "$tmp/t.c" --emit-hli "$tmp/t.hli" | head -n 1)
want="wrote $tmp/t.hli ($(wc -c < "$tmp/t.hli" | tr -d ' ') bytes)"
if [ "$got" != "$want" ]; then
  echo "emit-hli: FAIL — printed '$got', want '$want'" >&2
  exit 1
fi
echo "emit-hli: OK (the printed size is the file's length)"
