#!/bin/sh
# Build vbench from source and run one workload from the repository root:
#
#   sh benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# The first run in a fresh checkout builds the simulator libraries.
cd "$(dirname "$0")/.." || exit 2
exec dune exec --root . --display quiet -- ./benchmark/vbench.exe run "$@"
