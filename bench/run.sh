#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it once.
# Run from the repository root:
#
#   bash bench/run.sh --workload evsel-cachemiss --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# journals, traces) stays under .bench_build/ (or $CARGO_TARGET_DIR when
# set). Without the repository's sources beside bench/ the build fails
# and the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/work"

(
	cd "$root/bench"
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache \
		GOPATH=$out/home/go GOCACHE=$out/gocache GOTMPDIR=$out/gotmp \
		GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off \
		go build -o "$out/numabench" .
)
exec "$out/numabench" -workdir "$out/work" "$@"
