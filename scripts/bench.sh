#!/usr/bin/env bash
# bench.sh — the allocation guard (CI). It runs every kernel benchmark
# once, so none can bit-rot, and fails if a steady-state benchmark — the
# default network (BenchmarkKernelSteady), the same network under heavy
# transient faults (…Faults), the tests' every-cycle oracle (…Naive), the
# metrics-on variant, the low-load 16x16 run (BenchmarkKernelSparse16x16,
# where routers sleep with credits still arriving), the 8x8 network
# ticked as two shards (…SteadyShards) or the 16x16 one ticked as two
# shards that sample their own routers (…Sparse16x16Shards) — reports any
# allocations per simulated cycle; if a network rebuilt in a slab store
# allocates over 2% of a fresh build's bytes; or if a whole lone run in a
# reused store (BenchmarkRunReusedFaults: New and Run) makes more
# allocations than TestRunAllocatesOnlyInNew allows; or if a whole
# campaign grid rerun in warm stores (BenchmarkGridReused) makes more per
# point than TestGridAllocatesOnlyRows allows:
#
#   scripts/bench.sh --smoke
#
# Timings are the benchmark's business (`sh bench/run.sh`); what sleeping
# is worth on one workload is
# `go test ./internal/network -bench 'BenchmarkKernelSteady(Naive)?$'`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 || "$1" != "--smoke" ]]; then
    echo "usage: scripts/bench.sh --smoke" >&2
    exit 2
fi

# One iteration of everything: compile + run each benchmark body.
go test ./internal/network -run '^$' -bench 'BenchmarkKernel' -benchtime=1x -benchmem

# Allocation guard. 200 measured cycles after each benchmark's own
# warm-up (2000 cycles; 6000 on the 16x16) is enough for any
# per-cycle allocation to show up as allocs/op >= 1 (Go reports the
# floor of the mean). Each benchmark's measurement window is open, so
# latency recording is guarded too. The tick loop is guarded with
# sleeping actors and without: both must stay allocation-free at steady
# state. The Faults variant guards the error path: replays, misroute
# recalls and their pending queues, NACK wires.
# The Metrics variant guards the zero-cost-when-unscraped
# observability contract: gauges registered, sampling interval never
# firing. The Sparse16x16 variant guards the other regime: most
# routers asleep, woken by single flits, credits pooling on their
# wires meanwhile. The SteadyShards variant guards the two-shard step:
# the helper goroutine, its buffers and the cut channels' outboxes. The
# Sparse16x16Shards variant guards the occupancy sample the shards take
# of their own routers.
for bench in BenchmarkKernelSteady BenchmarkKernelSteadyFaults \
             BenchmarkKernelSteadyNaive BenchmarkKernelSteadyMetrics \
             BenchmarkKernelSparse16x16 BenchmarkKernelSteadyShards \
             BenchmarkKernelSparse16x16Shards; do
    line=$(go test ./internal/network -run '^$' -bench "${bench}\$" \
        -benchtime=200x -benchmem | grep "^${bench}")
    allocs=$(awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' <<<"$line")
    if [[ -z "$allocs" ]]; then
        echo "bench.sh: could not parse allocs/op from: $line" >&2
        exit 1
    fi
    if [[ "$allocs" != "0" ]]; then
        echo "bench.sh: FAIL — ${bench} allocates ($allocs allocs/op); the steady-state hot path must be allocation-free" >&2
        exit 1
    fi
    echo "bench.sh: OK — ${bench} is allocation-free"
done

# Slab-store guard: every component slab a build needs must come back
# from the store, so a rebuild allocates only what stays plain make (the
# network struct, its topology, counters and RNG root) — at most 2% of a
# fresh build's bytes.
out=$(go test ./internal/network -run '^$' -bench 'BenchmarkNew(Fresh|Reused)6x6$' \
    -benchtime=20x -benchmem)
bytes_per_op() {
    awk -v b="$1" '$1 ~ "^"b"(-[0-9]+)?$" {for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1)}' <<<"$out"
}
fresh=$(bytes_per_op BenchmarkNewFresh6x6)
reused=$(bytes_per_op BenchmarkNewReused6x6)
if [[ -z "$fresh" || -z "$reused" ]]; then
    echo "bench.sh: could not parse B/op from: $out" >&2
    exit 1
fi
if (( reused * 50 > fresh )); then
    echo "bench.sh: FAIL — a rebuild in a slab store allocates $reused B/op against a fresh build's $fresh; the bound is 2%" >&2
    exit 1
fi
echo "bench.sh: OK — a rebuild in a slab store allocates $reused B/op, a fresh build $fresh"

# bound_guard PKG BENCH OPS FILE CONST UNIT WHAT runs BENCH in PKG for
# OPS ops and fails if its UNIT metric exceeds the const CONST in FILE.
bound_guard() {
    local pkg=$1 bench=$2 ops=$3 file=$4 const=$5 unit=$6 what=$7
    local bound line got
    bound=$(awk -v c="$const" '$1 == "const" && $2 == c {print $4}' "$file")
    line=$(go test "$pkg" -run '^$' -bench "${bench}\$" -benchtime="${ops}x" -benchmem | grep "^${bench}")
    got=$(awk -v u="$unit" '{for (i = 2; i <= NF; i++) if ($i == u) print $(i-1)}' <<<"$line")
    if [[ -z "$bound" || -z "$got" ]]; then
        echo "bench.sh: could not parse the bound ($bound) or $unit from: $line" >&2
        exit 1
    fi
    if awk -v a="$got" -v b="$bound" 'BEGIN {exit !(a > b)}'; then
        echo "bench.sh: FAIL — $what makes $got $unit; the bound is $bound ($const)" >&2
        exit 1
    fi
    echo "bench.sh: OK — $what makes $got $unit (bound $bound)"
}

# Whole-run guard: a lone run of the faults config, New and Run, in the
# store the previous run gave back takes every buffer the run grows from
# the store, so it allocates only the network's few objects and its
# Results — at most maxRerunAllocs, TestRunAllocatesOnlyInNew's bound.
# Twenty runs average the runtime's own one-off allocations (a type
# assertion's cache, a helper goroutine) below one per run.
bound_guard ./internal/network BenchmarkRunReusedFaults 20 internal/network/alloc_test.go \
    maxRerunAllocs allocs/op "a lone run in a reused slab store"

# Whole-grid guard: the campaign_grid spec shape rerun in warm stores
# (ParseSpec, Run, WriteNDJSON) allocates per point only its Results, its
# network and topology, its row and its share of the spec and the report
# — at most maxGridPointAllocs, TestGridAllocatesOnlyRows' bound.
bound_guard ./internal/campaign BenchmarkGridReused 5 internal/campaign/memory_test.go \
    maxGridPointAllocs allocs/point "a campaign grid rerun"
