#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload kv-inline --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product (binary, Go build
# cache, temporary files, profiles) stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the working directory.
set -euo pipefail

root=$(pwd)
if [ ! -f servebench/go.mod ] || [ ! -f go.mod ]; then
	echo "servebench: run from the repository root (go.mod and servebench/go.mod must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its telemetry counters and env file under the
# user config directory; point that into the build directory as well.
export XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export PPROF_TMPDIR="$out/pprof"
export SERVEBENCH_OUT="$out"

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
