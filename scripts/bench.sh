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
# allocations than TestRunAllocatesOnlyInNew allows:
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

# Whole-run guard: a lone run of the faults config, New and Run, in the
# store the previous run gave back takes every buffer the run grows from
# the store, so it allocates only the network's few objects and its
# Results — at most maxRunAllocs, TestRunAllocatesOnlyInNew's bound.
bound=$(awk '$1 == "const" && $2 == "maxRunAllocs" {print $4}' internal/network/alloc_test.go)
line=$(go test ./internal/network -run '^$' -bench 'BenchmarkRunReusedFaults$' \
    -benchtime=5x -benchmem | grep '^BenchmarkRunReusedFaults')
allocs=$(awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' <<<"$line")
if [[ -z "$bound" || -z "$allocs" ]]; then
    echo "bench.sh: could not parse the bound ($bound) or allocs/op from: $line" >&2
    exit 1
fi
if (( allocs > bound )); then
    echo "bench.sh: FAIL — a lone run in a reused slab store makes $allocs allocs/op; the bound is $bound" >&2
    exit 1
fi
echo "bench.sh: OK — a lone run in a reused slab store makes $allocs allocs/op (bound $bound)"
