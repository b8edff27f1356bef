#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it
# with the arguments given, e.g.
#
#   bash campaignbench/run.sh --workload flood --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, spools, traces) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/tmp"
(
	cd "$root/campaignbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOPATH="$out/home/go" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/campaignbench" .
) >&2
exec "$out/campaignbench" "$@"
