#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload table12-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under $CARGO_TARGET_DIR, .bench_build by default, inside the
# checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/perfbench"
export GOCACHE="$out/perfbench/gocache" GOPATH="$out/perfbench/gopath" \
	XDG_CONFIG_HOME="$out/perfbench/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
