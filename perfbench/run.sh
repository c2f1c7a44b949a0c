#!/usr/bin/env bash
# Build the benchmark from this source tree and run one workload:
#   bash perfbench/run.sh --workload detect-matrix --seed 42 --seconds 20 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. Exits non-zero (printing no result) when the tree holds no Mumak
# sources to build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f dune-project || ! -f lib/core/engine.ml || ! -f perfbench/dune ]]; then
  echo "perfbench: no Mumak source tree at $root (need dune-project, lib/ and perfbench/)" >&2
  exit 2
fi

# The dune cache lives outside the tree; keep every build artifact inside it.
dune build --root . --cache=disabled --display=quiet ./perfbench/bench.exe 1>&2

exec ./_build/default/perfbench/bench.exe "$@"
