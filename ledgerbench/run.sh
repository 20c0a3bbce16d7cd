#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash ledgerbench/run.sh --workload csp-ckpt --seed 1 --seconds 30 --trace 0
#
# The binary, Go's build cache and the runs' checkpoint files all stay
# under .bench_build/ in the checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" -workdir "$out/ledger" "$@"
