#!/usr/bin/env bash
# Builds the benchmark and runs it; arguments pass through (see
# benchmark/README.md). Run it from the repository root. Go's caches and
# temporary files, the binaries and the run's scratch files all stay
# under .bench_build/ there, and the Go command is kept off the network.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/matchd" ]; then
	echo "benchmark/run.sh: $root is not the repository root (no go.mod or cmd/matchd)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C benchmark -o "$out/bench" .
exec "$out/bench" "$@"
