#!/usr/bin/env bash
# Builds cmd/gillis-server and the benchmark into .bench_build/ at the root
# of the checkout (nothing is written outside it) and runs the benchmark
# with the given arguments. See README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gillis-server" ]; then
	echo "benchmark: $root holds no gillis module to build and measure" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With telemetry in its default mode the go command leaves a detached child
# behind that outlives the build; the mode file is the only switch it has.
echo off >"$out/config/go/telemetry/mode"
cd "$root/benchmark"
go build -o "$out/gillis-server" gillis/cmd/gillis-server
go build -o "$out/gillis-benchmark" .
cd "$root"
exec "$out/gillis-benchmark" "$@"
