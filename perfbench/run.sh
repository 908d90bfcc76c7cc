#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload rpc-tax --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache go to .bench_build; XDG_CONFIG_HOME is
# pointed there too, so the go command writes nothing outside the
# checkout. GOPROXY=off: the build uses only the local module tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
