#!/usr/bin/env bash
# End-to-end smoke test for the nocd daemon: build it, start it on a
# random port, run a tiny 2-point campaign over HTTP, stream its SSE
# progress to completion, then resubmit the identical spec and assert a
# cache hit with byte-identical results — scraping /metrics before and
# after the resubmit to prove the Prometheus counters track the same
# events. A job of another shape must then leave the first job's stored
# result byte-identical. Finishes with a graceful SIGTERM shutdown.
#
# Used by CI; runnable locally from the repo root: scripts/nocd_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
nocd_pid=""
cleanup() {
    if [[ -n "$nocd_pid" ]] && kill -0 "$nocd_pid" 2>/dev/null; then
        kill -TERM "$nocd_pid" 2>/dev/null || true
        wait "$nocd_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

# metric FILE SERIES — extract one sample value from a text-format scrape.
metric() {
    awk -v s="$2" 'index($0, s " ") == 1 {print $NF}' "$1"
}

echo "== build nocd"
go build -o "$workdir/nocd" ./cmd/nocd

echo "== start nocd on a random port"
"$workdir/nocd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -workers 1 -queue 4 -drain 20s 2>"$workdir/nocd.log" &
nocd_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$workdir/addr" ]] && break
    sleep 0.1
done
[[ -s "$workdir/addr" ]] || { echo "nocd never wrote its address"; cat "$workdir/nocd.log"; exit 1; }
addr=$(cat "$workdir/addr")
echo "   listening on $addr"

body='{"base":{"Width":4,"Height":4,"TotalMessages":300,"WarmupMessages":50,"Seed":11},"injection_rates":[0.1,0.2],"seeds":2}'

echo "== submit a 2-point campaign"
curl -sf -X POST -d "$body" "http://$addr/v1/campaigns" >"$workdir/sub1.json"
id=$(jq -r .id "$workdir/sub1.json")
state=$(jq -r .state "$workdir/sub1.json")
[[ "$state" == "queued" ]] || { echo "fresh submission state = $state, want queued"; exit 1; }
echo "   id=$id"

echo "== stream SSE until the server closes the connection"
curl -sN --max-time 120 "http://$addr/v1/campaigns/$id/events" >"$workdir/sse.txt"
grep -q "^event: done$" "$workdir/sse.txt" || { echo "no terminal done event in SSE stream"; cat "$workdir/sse.txt"; exit 1; }
echo "   $(grep -c '^event: point-done$' "$workdir/sse.txt" || true) point-done events, terminal: done"

echo "== fetch results"
curl -sf "http://$addr/v1/campaigns/$id" >"$workdir/status1.json"
jq -e '.state == "done" and .cached == false and (.result | length) == 2' "$workdir/status1.json" >/dev/null \
    || { echo "unexpected status:"; jq . "$workdir/status1.json"; exit 1; }
jq -c '.result' "$workdir/status1.json" >"$workdir/result1.json"

echo "== healthz reports build info"
curl -sf "http://$addr/healthz" >"$workdir/healthz.json"
jq -e '.status == "ok" and .go_version != "" and .uptime_seconds >= 0' "$workdir/healthz.json" >/dev/null \
    || { echo "unexpected healthz document:"; cat "$workdir/healthz.json"; exit 1; }

echo "== scrape /metrics (baseline before the cached resubmit)"
curl -sf "http://$addr/metrics" >"$workdir/metrics1.txt"
grep -q '^# TYPE nocd_jobs_completed_total counter$' "$workdir/metrics1.txt" \
    || { echo "scrape missing nocd_jobs_completed_total TYPE header"; exit 1; }
for fam in nocd_http_requests_total nocd_queue_depth nocd_jobs nocd_cache_hits_total \
           nocd_sse_subscribers nocd_job_run_seconds_bucket nocd_build_info; do
    grep -q "^$fam" "$workdir/metrics1.txt" || { echo "scrape missing family $fam"; exit 1; }
done
done1=$(metric "$workdir/metrics1.txt" 'nocd_jobs_completed_total{state="done"}')
hits1=$(metric "$workdir/metrics1.txt" 'nocd_cache_hits_total')
[[ "$done1" == "1" ]] || { echo "jobs_completed_total{done} = $done1, want 1"; exit 1; }
echo "   jobs done=$done1 cache hits=$hits1"

echo "== resubmit the identical spec — must be a cache hit"
curl -sf -X POST -d "$body" "http://$addr/v1/campaigns" >"$workdir/sub2.json"
jq -e '.cached == true and .state == "done"' "$workdir/sub2.json" >/dev/null \
    || { echo "resubmission was not a cache hit:"; jq . "$workdir/sub2.json"; exit 1; }
hash1=$(jq -r .hash "$workdir/sub1.json")
hash2=$(jq -r .hash "$workdir/sub2.json")
[[ "$hash1" == "$hash2" ]] || { echo "hash mismatch: $hash1 vs $hash2"; exit 1; }
id2=$(jq -r .id "$workdir/sub2.json")
curl -sf "http://$addr/v1/campaigns/$id2" | jq -c '.result' >"$workdir/result2.json"
cmp -s "$workdir/result1.json" "$workdir/result2.json" \
    || { echo "cached result differs from fresh result"; diff "$workdir/result1.json" "$workdir/result2.json" || true; exit 1; }
jq -e '.cache.hits >= 1 and .cache.misses >= 1' <(curl -sf "http://$addr/v1/stats") >/dev/null \
    || { echo "cache counters missing the hit/miss"; exit 1; }
echo "   cache hit, result bytes identical"

echo "== /metrics counters moved across the cached resubmit"
curl -sf "http://$addr/metrics" >"$workdir/metrics2.txt"
done2=$(metric "$workdir/metrics2.txt" 'nocd_jobs_completed_total{state="done"}')
hits2=$(metric "$workdir/metrics2.txt" 'nocd_cache_hits_total')
[[ "$done2" == "2" ]] || { echo "jobs_completed_total{done} = $done2 after resubmit, want 2"; exit 1; }
awk -v a="$hits1" -v b="$hits2" 'BEGIN {exit !(b > a)}' \
    || { echo "cache_hits_total did not increment: $hits1 -> $hits2"; exit 1; }
# /v1/stats and /metrics must agree on the cache hit counter.
jq -e --argjson hits "$hits2" '.cache.hits == $hits' <(curl -sf "http://$addr/v1/stats") >/dev/null \
    || { echo "/v1/stats and /metrics disagree on cache hits"; exit 1; }
echo "   jobs done $done1->$done2, cache hits $hits1->$hits2, stats agree"

echo "== a job of another shape leaves the first job's result intact"
# Pool workers build in slab stores kept across jobs, so the second job
# reuses the first one's slabs; the first job's stored rows must not move.
obody='{"base":{"Width":6,"Height":6,"TotalMessages":300,"WarmupMessages":50,"Seed":23},"protections":["fec"],"link_error_rates":[0.001],"injection_rates":[0.1],"seeds":2}'
curl -sf -X POST -d "$obody" "http://$addr/v1/campaigns" >"$workdir/sub4.json"
oid=$(jq -r .id "$workdir/sub4.json")
curl -sN --max-time 120 "http://$addr/v1/campaigns/$oid/events" >"$workdir/sse4.txt"
grep -q "^event: done$" "$workdir/sse4.txt" || { echo "no terminal done event for the 6x6 campaign"; cat "$workdir/sse4.txt"; exit 1; }
curl -sf "http://$addr/v1/campaigns/$id" | jq -c '.result' >"$workdir/result1-again.json"
cmp -s "$workdir/result1.json" "$workdir/result1-again.json" \
    || { echo "first job's result changed after a later job"; diff "$workdir/result1.json" "$workdir/result1-again.json" || true; exit 1; }
echo "   6x6 fec job done, first job's result bytes unchanged"

echo "== mortality degradation: 2-point hard-fault sweep"
mbody='{"base":{"Width":4,"Height":4,"TotalMessages":300,"WarmupMessages":50,"Seed":11},"routings":["fault-adaptive"],"injection_rates":[0.2],"mortality_schedules":["none","link:5E@100,router:9@150"],"seeds":2}'
curl -sf -X POST -d "$mbody" "http://$addr/v1/campaigns" >"$workdir/sub3.json"
mid=$(jq -r .id "$workdir/sub3.json")
curl -sN --max-time 120 "http://$addr/v1/campaigns/$mid/events" >"$workdir/sse3.txt"
grep -q "^event: done$" "$workdir/sse3.txt" || { echo "no terminal done event for mortality campaign"; cat "$workdir/sse3.txt"; exit 1; }
curl -sf "http://$addr/v1/campaigns/$mid" >"$workdir/status3.json"
jq -e '.state == "done" and (.result | length) == 2 and ([.result[].error // ""] | all(. == ""))' \
    "$workdir/status3.json" >/dev/null \
    || { echo "mortality campaign did not finish cleanly:"; jq . "$workdir/status3.json"; exit 1; }
# The fault-free point keeps full reachability; the faulted point's
# reachable-pair fraction must strictly degrade — the monotone curve the
# degradation plots are built from.
jq -e '
    (.result[] | select(.mortality == "none")) as $ok
    | (.result[] | select(.mortality != "none")) as $hurt
    | $ok.reachable_frac.mean == 1
      and $hurt.reachable_frac.mean < 1
      and $hurt.reachable_frac.mean > 0
' "$workdir/status3.json" >/dev/null \
    || { echo "degradation curve not monotone:"; jq '[.result[] | {mortality, reachable_frac}]' "$workdir/status3.json"; exit 1; }
echo "   reachable fraction: $(jq -r '[.result[].reachable_frac.mean] | @csv' "$workdir/status3.json") (fault-free vs faulted)"

echo "== graceful shutdown"
kill -TERM "$nocd_pid"
wait "$nocd_pid"
nocd_pid=""
grep -q "nocd: bye" "$workdir/nocd.log" || { echo "daemon did not shut down cleanly"; cat "$workdir/nocd.log"; exit 1; }

echo "nocd smoke: OK"
