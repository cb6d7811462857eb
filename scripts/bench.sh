#!/bin/sh
# Run the DES-substrate micro-benchmarks and append a labelled snapshot to
# BENCH_substrate.json. Run from the repository root:
#
#     scripts/bench.sh -label <label> [-count N] [-bench <regexp>]
#
# -label names the snapshot (e.g. "pre-refactor", "after-pooling") and is
# required; -count is the go test -count repetition (default 5; results are
# averaged); -bench overrides the benchmark selection regexp. Flags go
# straight through to benchgate's record mode/go test, so snapshots are
# never hand-edited.
set -eu

label=
count=5
bench='Sim(Engine|Handoff|LinkChurn|ServerContention|Workflow|WorkflowLarge|WorkflowHuge)$|^Benchmark(DAGBuild|LocalityPlace|HEFTPlace|WorkStealNext)$'

usage() {
    echo "usage: scripts/bench.sh -label <label> [-count N] [-bench <regexp>]" >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case $1 in
    -label) [ $# -ge 2 ] || usage; label=$2; shift 2 ;;
    -count) [ $# -ge 2 ] || usage; count=$2; shift 2 ;;
    -bench) [ $# -ge 2 ] || usage; bench=$2; shift 2 ;;
    *) usage ;;
    esac
done
[ -n "$label" ] || usage

go test -run '^$' -bench "$bench" -benchmem -count "$count" . |
    go run scripts/benchgate.go -record "$label"
