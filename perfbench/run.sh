#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload silo-agg --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go environment files)
# stays under the build directory: $CARGO_TARGET_DIR if set, else
# .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/perfbench"

export GOCACHE="$build/perfbench/gocache"
export GOPATH="$build/perfbench/gopath"
export GOMODCACHE="$GOPATH/pkg/mod"
export XDG_CONFIG_HOME="$build/perfbench/config"
export GOTOOLCHAIN=local GOWORK=off

bin="$build/perfbench/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
cd "$root"
exec "$bin" "$@"
