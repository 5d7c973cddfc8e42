#!/bin/sh
# Build the benchmark from source and run it; arguments go to fdbench.
#   sh fdbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to _build/.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "fdbench: run from the root of a fortran_d checkout" >&2
  exit 2
fi
dune build --root . ./fdbench/main.exe >&2
exec ./_build/default/fdbench/main.exe "$@"
