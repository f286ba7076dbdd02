#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Build output stays in _build/ there;
# dune's shared cache is disabled so nothing is written outside.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: no dune-project in $(pwd); run from a checkout of the repository" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet --profile release \
  ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
