#!/usr/bin/env bash
# Build recdb and the benchmark harness from the source tree this script
# sits in, then run one benchmark pass:
#
#   bash perfbench/run.sh --workload hot_mixed --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; the last line on stdout is the result.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no recdb source tree in $root" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
if ! "${dune[@]}" build --root . ./bin/recdb.exe ./perfbench/bench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/bench.exe --recdb ./_build/default/bin/recdb.exe "$@"
