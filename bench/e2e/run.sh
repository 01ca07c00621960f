#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with every
# argument passed through (see README.md).  Run from the repository
# root; build output goes to stderr so stdout ends with the result line.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
