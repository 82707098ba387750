#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload ring-clustered --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary build files,
# the binary and the scratch spools stay under .perfbench/ in the checkout;
# no module is fetched.
set -euo pipefail
root=$(pwd)
work="$root/.perfbench"
mkdir -p "$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOPATH="$work/gopath" GOCACHE="$work/gocache" GOMODCACHE="$work/gopath/pkg/mod" GOTMPDIR="$work/tmp"
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --workdir "$work" "$@"
