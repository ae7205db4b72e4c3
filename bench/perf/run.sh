#!/usr/bin/env bash
# Builds the benchmark from source in .bench_build/ and runs it; every
# argument is passed to perf.exe (see README.md). Run from the root of a
# checkout: bash bench/perf/run.sh --workload warm-fleet --seed 1 --seconds 25 --trace 0
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/perf/dune ]]; then
  echo "run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"
dune build --root . --build-dir "$build/dune" --cache=disabled --display=quiet \
  ./bench/perf/perf.exe 1>&2
exec "$build/dune/default/bench/perf/perf.exe" "$@"
