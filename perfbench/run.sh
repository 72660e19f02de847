#!/usr/bin/env bash
# Builds the quorumkit benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the go command's own
# configuration and telemetry files included, stays under .bench_build/ at
# the root, so the run writes nothing outside the checkout and reads only
# the Go toolchain from outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
