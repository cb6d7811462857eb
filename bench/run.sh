#!/usr/bin/env bash
# Builds wfbench from source and runs it from the repository root, passing
# every argument through:
#
#     bash bench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch stores)
# stays under .bench_build/ in the repository root. The build fails, and
# the script exits non-zero, when the wfsim sources are not beside bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/wfbench" ./cmd/wfbench)
exec "$out/wfbench" "$@"
