#!/bin/sh
# Build the benchmark from source and run it, from the root of a checkout:
#   sh bench/e2e/bench.sh --workload ba-scale --seed 7 --seconds 10 --trace 0
# Build messages go to stderr; the benchmark's own output is all of stdout.
exec dune exec --root . --cache=disabled --no-config --display=quiet \
  --no-print-directory bench/e2e/main.exe -- "$@"
