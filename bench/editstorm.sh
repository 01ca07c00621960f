#!/bin/sh
# Edit-storm check for the per-function HLI cache (dune alias
# @editstorm, also run by @smoke).
#
# Runs bench/main.exe in editstorm mode over the full suite, which
#   1. mutates 1%/5%/25%/100% of the suite's functions (in-place
#      constant tweaks) and re-runs the HLI-production phase through a
#      warm per-function cache — the mode itself asserts the
#      hit/miss ledger per fraction (only touched functions miss) and
#      that every spliced warm HLI is byte-identical to a cold build,
#   2. validates the emitted BENCH_editstorm.json (structural check +
#      the fields EXPERIMENTS.md documents), and
#   3. arms EDITSTORM_FLOOR (default 5): the 1% storm's recompile must
#      beat the cold build by at least that factor or the mode exits 1,
# then runs it again, ungated, over two workloads (8 functions): a
# subset under 20 functions must pass the 1% row's re-analysis bound.
set -eu

# dune runs us inside _build with a relative exe path; make it invocable
exe="$1"
case "$exe" in
  /*) ;;
  *) exe="./$exe" ;;
esac

tmp="${TMPDIR:-/tmp}/hli-editstorm-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

out="$tmp/BENCH_editstorm.json"
EDITSTORM_FLOOR="${EDITSTORM_FLOOR:-5}" \
  "$exe" editstorm --hli-cache "$tmp/cache" --out "$out" > "$tmp/es.out"

"$exe" --validate-json "$out" > /dev/null \
  || { echo "editstorm: FAIL — malformed $out" >&2; exit 1; }

for key in '"schema":"hli-editstorm-v1"' '"workloads":' '"functions":' \
           '"fraction":' '"mutated":' '"reanalyzed":' '"partial_hits":' \
           '"cold_ns":' '"warm_ns":' '"edit_ns":' '"speedup":'; do
  grep -q -- "$key" "$out" \
    || { echo "editstorm: FAIL — $out lacks $key" >&2; exit 1; }
done

env -u EDITSTORM_FLOOR "$exe" editstorm --workloads wc,129.compress \
  --hli-cache "$tmp/subset-cache" --out "$tmp/subset.json" > "$tmp/subset.out" \
  || { echo "editstorm: FAIL — the wc,129.compress subset run" >&2; exit 1; }

echo "editstorm: OK (${EDITSTORM_FLOOR:-5}x floor upheld, JSON valid, subset passes)"
