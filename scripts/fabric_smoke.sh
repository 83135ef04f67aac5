#!/usr/bin/env bash
# End-to-end smoke test for the distributed fabric: build nocd, start a
# coordinator and two workers on random ports, submit a campaign through
# the coordinator's public API, SIGKILL one worker while it has a shard
# in flight, and assert the campaign still completes with rows
# byte-identical to a single-node run of the same spec. Then cancels a
# second campaign once a shard of it has completed and resubmits it: the
# completed shards must replay from the coordinator's shard cache and the
# rows must again match a single-node run. Finishes by scraping the
# coordinator's /metrics for the nocd_fabric_ families and checking the
# failure/retry counters recorded the kill.
#
# Used by CI; runnable locally from the repo root: scripts/fabric_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_file FILE — poll until FILE is non-empty (10s budget).
wait_file() {
    for _ in $(seq 1 100); do
        [[ -s "$1" ]] && return 0
        sleep 0.1
    done
    echo "timed out waiting for $1"
    return 1
}

# metric FILE SERIES — extract one sample value from a text-format scrape.
metric() {
    awk -v s="$2" 'index($0, s " ") == 1 {print $NF}' "$1"
}

echo "== build nocd"
go build -o "$workdir/nocd" ./cmd/nocd

echo "== start coordinator + 2 workers + a single-node reference daemon"
"$workdir/nocd" -role coordinator -addr 127.0.0.1:0 -addr-file "$workdir/coord.addr" \
    -shard-points 1 -heartbeat-ttl 2s 2>"$workdir/coord.log" &
pids+=($!)
wait_file "$workdir/coord.addr"
coord=$(cat "$workdir/coord.addr")
echo "   coordinator on $coord"

for w in alpha bravo; do
    "$workdir/nocd" -role worker -coordinator "http://$coord" -name "$w" \
        -addr 127.0.0.1:0 -addr-file "$workdir/$w.addr" 2>"$workdir/$w.log" &
    pids+=($!)
    eval "${w}_pid=\${pids[-1]}"
done
wait_file "$workdir/alpha.addr"
wait_file "$workdir/bravo.addr"

"$workdir/nocd" -role single -addr 127.0.0.1:0 -addr-file "$workdir/single.addr" \
    2>"$workdir/single.log" &
pids+=($!)
wait_file "$workdir/single.addr"
single=$(cat "$workdir/single.addr")

echo "== wait for both workers to register"
for _ in $(seq 1 100); do
    alive=$(curl -sf "http://$coord/fabric/v1/workers" | jq '[.[] | select(.alive)] | length')
    [[ "$alive" == "2" ]] && break
    sleep 0.1
done
[[ "$alive" == "2" ]] || { echo "workers never registered"; cat "$workdir"/*.log; exit 1; }
echo "   2 workers alive"

# 10 points, one per shard, heavy enough that the campaign is still
# running when the kill lands.
body='{"base":{"Width":4,"Height":4,"TotalMessages":4000,"WarmupMessages":200,"Seed":11},
       "injection_rates":[0.05,0.08,0.1,0.12,0.15,0.18,0.2,0.22,0.25,0.28],"seeds":1}'

echo "== submit through the coordinator"
curl -sf -X POST -d "$body" "http://$coord/v1/campaigns" >"$workdir/sub.json"
id=$(jq -r .id "$workdir/sub.json")
echo "   id=$id"

echo "== SIGKILL worker alpha while it has a shard in flight"
killed=""
for _ in $(seq 1 200); do
    busy=$(curl -sf "http://$coord/fabric/v1/workers" \
        | jq '[.[] | select(.name == "alpha")][0].busy')
    if [[ "$busy" -ge 1 ]]; then
        kill -9 "$alpha_pid"
        wait "$alpha_pid" 2>/dev/null || true
        killed=yes
        break
    fi
    state=$(curl -sf "http://$coord/v1/campaigns/$id" | jq -r .state)
    [[ "$state" == "done" || "$state" == "failed" ]] && break
    sleep 0.05
done
[[ -n "$killed" ]] || { echo "campaign finished before alpha was ever busy"; exit 1; }
echo "   alpha killed mid-shard"

echo "== campaign must still complete"
for _ in $(seq 1 600); do
    state=$(curl -sf "http://$coord/v1/campaigns/$id" | jq -r .state)
    [[ "$state" == "done" || "$state" == "failed" || "$state" == "canceled" ]] && break
    sleep 0.2
done
[[ "$state" == "done" ]] || { echo "cluster campaign state = $state, want done"; cat "$workdir/coord.log"; exit 1; }
curl -sf "http://$coord/v1/campaigns/$id" | jq -c '.result' >"$workdir/cluster.json"
rows=$(jq 'length' "$workdir/cluster.json")
[[ "$rows" == "10" ]] || { echo "cluster result has $rows rows, want 10"; exit 1; }
echo "   done, $rows rows"

# same_as_single BODY CLUSTER_JSON — run BODY on the single-node daemon
# and require its rows to be byte-identical to CLUSTER_JSON.
same_as_single() {
    curl -sf -X POST -d "$1" "http://$single/v1/campaigns" >"$workdir/ssub.json"
    local sid
    sid=$(jq -r .id "$workdir/ssub.json")
    curl -sN --max-time 300 "http://$single/v1/campaigns/$sid/events" >/dev/null
    curl -sf "http://$single/v1/campaigns/$sid" | jq -c '.result' >"$workdir/single.json"
    cmp -s "$2" "$workdir/single.json" \
        || { echo "cluster rows differ from single-node rows"; diff "$2" "$workdir/single.json" || true; exit 1; }
}

# wait_terminal ID — poll the coordinator until job ID is terminal and
# print its state.
wait_terminal() {
    local st=""
    for _ in $(seq 1 600); do
        st=$(curl -sf "http://$coord/v1/campaigns/$1" | jq -r .state)
        [[ "$st" == "done" || "$st" == "failed" || "$st" == "canceled" ]] && break
        sleep 0.2
    done
    echo "$st"
}

echo "== single-node run of the same spec must be byte-identical"
same_as_single "$body" "$workdir/cluster.json"
echo "   byte-identical"

echo "== cancel a second campaign after its first completed shard, then resume it"
body2='{"base":{"Width":4,"Height":4,"TotalMessages":8000,"WarmupMessages":200,"Seed":12},
        "injection_rates":[0.05,0.08,0.1,0.12,0.15,0.18,0.2,0.22],"seeds":1}'
curl -sf "http://$coord/metrics" >"$workdir/metrics0.txt"
completed0=$(metric "$workdir/metrics0.txt" nocd_fabric_shards_completed_total)
curl -sf -X POST -d "$body2" "http://$coord/v1/campaigns" >"$workdir/sub2.json"
id2=$(jq -r .id "$workdir/sub2.json")
canceled=""
for _ in $(seq 1 600); do
    curl -sf "http://$coord/metrics" >"$workdir/metrics1.txt"
    completed1=$(metric "$workdir/metrics1.txt" nocd_fabric_shards_completed_total)
    if awk -v a="$completed1" -v b="$completed0" 'BEGIN {exit !(a > b)}'; then
        curl -sf -X DELETE "http://$coord/v1/campaigns/$id2" >/dev/null
        canceled=yes
        break
    fi
    sleep 0.05
done
[[ -n "$canceled" ]] || { echo "no shard of the second campaign ever completed"; exit 1; }
state=$(wait_terminal "$id2")
[[ "$state" == "canceled" ]] || { echo "second campaign state = $state after DELETE, want canceled"; exit 1; }
echo "   canceled after shards_completed_total $completed0 -> $completed1"

curl -sf -X POST -d "$body2" "http://$coord/v1/campaigns" >"$workdir/sub3.json"
id3=$(jq -r .id "$workdir/sub3.json")
state=$(wait_terminal "$id3")
[[ "$state" == "done" ]] || { echo "resumed campaign state = $state, want done"; cat "$workdir/coord.log"; exit 1; }
curl -sf "http://$coord/v1/campaigns/$id3" | jq -c '.result' >"$workdir/resumed.json"
curl -sf "http://$coord/metrics" >"$workdir/metrics2.txt"
hits=$(metric "$workdir/metrics2.txt" nocd_fabric_cache_hit_shards_total)
awk -v h="$hits" 'BEGIN {exit !(h >= 1)}' \
    || { echo "cache_hit_shards_total = $hits after the resume, want >= 1"; exit 1; }
same_as_single "$body2" "$workdir/resumed.json"
echo "   resumed with $hits shard(s) from the cache, rows byte-identical"

echo "== coordinator /metrics carries the fabric families and saw the kill"
curl -sf "http://$coord/metrics" >"$workdir/metrics.txt"
for fam in nocd_fabric_shards_dispatched_total nocd_fabric_shards_completed_total \
           nocd_fabric_shard_failures_total nocd_fabric_rows_received_total \
           nocd_fabric_workers_registered nocd_fabric_workers_alive \
           nocd_fabric_tenant_queue_depth; do
    grep -q "^$fam" "$workdir/metrics.txt" || { echo "scrape missing family $fam"; exit 1; }
done
completed=$(metric "$workdir/metrics.txt" nocd_fabric_shards_completed_total)
failures=$(metric "$workdir/metrics.txt" nocd_fabric_shard_failures_total)
retries=$(metric "$workdir/metrics.txt" nocd_fabric_shard_retries_total)
awk -v c="$completed" 'BEGIN {exit !(c >= 10)}' \
    || { echo "shards_completed_total = $completed, want >= 10"; exit 1; }
awk -v f="$failures" 'BEGIN {exit !(f >= 1)}' \
    || { echo "shard_failures_total = $failures, want >= 1 after the kill"; exit 1; }
awk -v r="$retries" 'BEGIN {exit !(r >= 1)}' \
    || { echo "shard_retries_total = $retries, want >= 1 after the kill"; exit 1; }
echo "   completed=$completed failures=$failures retries=$retries"

echo "fabric smoke: OK"
