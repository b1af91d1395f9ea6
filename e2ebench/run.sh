#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it, from the root of a
# checkout of the repository:
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last line on stdout is its
# JSON result. Scratch files stay in .e2ebench/ and _build/ under the root.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .e2ebench/tmp
export TMPDIR="$PWD/.e2ebench/tmp"
dune build --root . --cache=disabled --display=quiet ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
