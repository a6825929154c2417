#!/usr/bin/env bash
# Builds metascreen's benchmark from source and runs one workload:
#
#   bash metabench/run.sh --workload screen-real --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, journals, Chrome traces) goes under .bench_build/ there.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
(cd "$root/metabench" && go build -o "$out/metabench" .)
cd "$root"
exec "$out/metabench" "$@"
