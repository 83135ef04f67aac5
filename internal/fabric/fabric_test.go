package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
	"ftnoc/internal/trace"
)

// tinyBase is a 4x4 platform small enough that a grid of points runs in
// well under a second per point.
func tinyBase() network.Config {
	cfg := network.NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 300
	cfg.MaxCycles = 100_000
	cfg.StallCycles = 30_000
	return cfg
}

// tinySpec is a 4-point grid (2 routings × 2 error rates), 2 replicates.
func tinySpec() campaign.Spec {
	return campaign.Spec{
		Base:           tinyBase(),
		Routings:       []routing.Algorithm{routing.XY, routing.WestFirst},
		LinkErrorRates: []float64{0, 1e-3},
		InjectionRates: []float64{0.1},
		Seeds:          2,
	}
}

// memCache is a test-local CacheStore.
type memCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemCache() *memCache { return &memCache{m: make(map[string][]byte)} }

func (s *memCache) CacheGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memCache) CachePut(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
}

// registerWorker announces a worker to the coordinator over its real
// registration endpoint.
func registerWorker(t *testing.T, coordURL, name, workerURL string, slots int) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Name: name, URL: workerURL, Slots: slots})
	resp, err := http.Post(coordURL+PathWorkers, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: %s", name, resp.Status)
	}
}

// renderNDJSON is the differential oracle's serialisation: the exact
// bytes nocd would cache and serve for the report.
func renderNDJSON(t *testing.T, r *campaign.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.Bytes()
}

func singleNodeNDJSON(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	report, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	return renderNDJSON(t, report)
}

// TestCoordinatorDifferential is the fabric's core law: a campaign run
// across three workers renders byte-identical NDJSON to the single-node
// engine.
func TestCoordinatorDifferential(t *testing.T) {
	spec := tinySpec()
	want := singleNodeNDJSON(t, spec)

	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 1, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coord.SetCache(newMemCache())
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	for i := 0; i < 3; i++ {
		w := NewWorker(WorkerOptions{Name: fmt.Sprintf("w%d", i), Coordinator: coordSrv.URL, SimWorkers: 1})
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		registerWorker(t, coordSrv.URL, fmt.Sprintf("w%d", i), srv.URL, 1)
	}

	report, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	got := renderNDJSON(t, report)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed rows differ from single-node:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
	}
	if v := coord.met.completed.Value(); v != 4 {
		t.Fatalf("completed shards = %v, want 4", v)
	}
}

// killingHandler emulates a worker SIGKILLed mid-shard: after `limit`
// streamed lines it severs the TCP connection, and every request after
// that is severed immediately — the process is gone. With midLine set
// the death lands inside the next line: half of it reaches the wire.
type killingHandler struct {
	h       http.Handler
	limit   int
	midLine bool
	dead    atomic.Bool
	kills   atomic.Int64
}

func (k *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		k.sever(w)
		return
	}
	k.h.ServeHTTP(&killingWriter{ResponseWriter: w, k: k}, r)
}

func (k *killingHandler) sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			k.kills.Add(1)
		}
	}
}

type killingWriter struct {
	http.ResponseWriter
	k     *killingHandler
	lines int
}

func (w *killingWriter) Write(p []byte) (int, error) {
	if w.k.dead.Load() {
		return 0, fmt.Errorf("worker is dead")
	}
	if w.k.midLine && w.lines >= w.k.limit {
		_, _ = w.ResponseWriter.Write(p[:len(p)/2])
		w.die()
		return 0, fmt.Errorf("worker is dead")
	}
	n, err := w.ResponseWriter.Write(p)
	w.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}

// Flush lets a completed line reach the wire, then kills the connection
// once the limit is hit — the coordinator really receives the rows
// streamed before the death, which is the partial-delivery path under
// test.
func (w *killingWriter) Flush() {
	switch {
	case w.k.dead.Load():
	case !w.k.midLine && w.lines >= w.k.limit:
		w.die()
	default:
		w.ResponseWriter.(http.Flusher).Flush()
	}
}

// die puts everything written so far on the wire, then severs.
func (w *killingWriter) die() {
	w.ResponseWriter.(http.Flusher).Flush()
	w.k.dead.Store(true)
	w.k.sever(w.ResponseWriter)
}

// TestCoordinatorSurvivesWorkerDeath kills one of three workers after
// its first streamed row — between rows, or halfway through writing the
// second, whose fragment must not be merged: the campaign must still
// complete, its rows still byte-identical to single-node, with the dead
// worker's unfinished points redispatched to the survivors. Two shards
// of two points: name order makes the dispatcher offer the first one to
// the victim ("a-victim" sorts before the healthy workers).
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	spec := tinySpec()
	want := singleNodeNDJSON(t, spec)
	for _, midLine := range []bool{false, true} {
		t.Run(fmt.Sprintf("midLine=%v", midLine), func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{ShardPoints: 2, HeartbeatTTL: time.Minute})
			defer coord.Close()
			coordSrv := httptest.NewServer(coord.Handler())
			defer coordSrv.Close()

			victim := NewWorker(WorkerOptions{Name: "a-victim", SimWorkers: 1})
			killer := &killingHandler{h: victim.Handler(), limit: 1, midLine: midLine}
			victimSrv := httptest.NewServer(killer)
			defer victimSrv.Close()
			registerWorker(t, coordSrv.URL, "a-victim", victimSrv.URL, 1)
			for _, name := range []string{"b-ok", "c-ok"} {
				w := NewWorker(WorkerOptions{Name: name, SimWorkers: 1})
				srv := httptest.NewServer(w.Handler())
				defer srv.Close()
				registerWorker(t, coordSrv.URL, name, srv.URL, 1)
			}

			report, err := coord.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("fabric run with dying worker: %v", err)
			}
			got := renderNDJSON(t, report)
			if !bytes.Equal(got, want) {
				t.Fatalf("rows after worker death differ from single-node:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
			}
			if killer.kills.Load() == 0 {
				t.Fatal("victim worker was never killed mid-stream; the test exercised nothing")
			}
			if v := coord.met.retries.Value(); v < 1 {
				t.Fatalf("retries = %v, want >= 1", v)
			}
			if v := coord.met.failures.Value(); v < 1 {
				t.Fatalf("failures = %v, want >= 1", v)
			}
		})
	}
}

// TestCoordinatorBreakerOpensOnFailingWorker gives a worker that refuses
// every shard first pick of twelve one-point shards beside one healthy
// worker. No retry goes back to it, but fresh shards are offered to it
// while it is idle, so it fails breakerTrip of them in a row and its
// breaker opens; the rows still match single-node.
func TestCoordinatorBreakerOpensOnFailingWorker(t *testing.T) {
	spec := tinySpec()
	spec.LinkErrorRates = []float64{0, 1e-3, 1e-2}
	spec.InjectionRates = []float64{0.1, 0.15}
	want := singleNodeNDJSON(t, spec)
	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 1, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "refusing every shard", http.StatusInternalServerError)
	}))
	defer bad.Close()
	registerWorker(t, coordSrv.URL, "a-bad", bad.URL, 1)
	ok := httptest.NewServer(NewWorker(WorkerOptions{Name: "b-ok", SimWorkers: 1}).Handler())
	defer ok.Close()
	registerWorker(t, coordSrv.URL, "b-ok", ok.URL, 1)

	report, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fabric run with a failing worker: %v", err)
	}
	if got := renderNDJSON(t, report); !bytes.Equal(got, want) {
		t.Fatalf("rows differ from single-node:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
	}
	if v := coord.met.breakerOpens.Value(); v < 1 {
		t.Fatalf("breaker opens = %v after %v failures, want >= 1", v, coord.met.failures.Value())
	}
}

// TestCoordinatorSurvivesStalledWorker registers a worker that accepts
// every shard and writes nothing until its request context ends, beside
// a healthy one. With the dispatch timeout at 2 s the stalled dispatches
// time out, their shards are redispatched and counted as retries, and
// the rows are still byte-identical to single-node. The stalled worker
// sorts first, so the dispatcher offers it a shard, but never the same
// range twice: a timed-out shard goes to a worker that has not failed
// it. The timeout bounds the healthy worker's shards too: a race-built
// shard on a loaded host overran 200 ms, while a stalled dispatch waits
// out any timeout.
func TestCoordinatorSurvivesStalledWorker(t *testing.T) {
	spec := tinySpec()
	want := singleNodeNDJSON(t, spec)
	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 2, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coord.timeout = 2 * time.Second
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	var stalls atomic.Int64
	var seenMu sync.Mutex
	seen := map[[2]int]bool{}
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalls.Add(1)
		// Reading the shard to its end lets the server notice the
		// coordinator hanging up, which is what ends the context.
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stalled worker: reading shard: %v", err)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		seenMu.Lock()
		if rng := [2]int{req.Lo, req.Hi}; seen[rng] {
			t.Errorf("shard [%d,%d) dispatched again to the worker that failed it", req.Lo, req.Hi)
		} else {
			seen[rng] = true
		}
		seenMu.Unlock()
		<-r.Context().Done()
	}))
	defer stalled.Close()
	registerWorker(t, coordSrv.URL, "a-stalled", stalled.URL, 1)
	ok := httptest.NewServer(NewWorker(WorkerOptions{Name: "b-ok", SimWorkers: 1}).Handler())
	defer ok.Close()
	registerWorker(t, coordSrv.URL, "b-ok", ok.URL, 1)

	report, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fabric run with a stalled worker: %v", err)
	}
	if got := renderNDJSON(t, report); !bytes.Equal(got, want) {
		t.Fatalf("rows after a stalled worker differ from single-node:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
	}
	if stalls.Load() == 0 {
		t.Fatal("the stalled worker was never dispatched to; the test exercised nothing")
	}
	if v := coord.met.retries.Value(); v < 1 {
		t.Fatalf("retries = %v, want >= 1", v)
	}
}

// conflictingHandler emulates a worker that breaks the determinism law:
// it streams a second, different copy of the first row it sent, either
// right after it or just before its done trailer.
type conflictingHandler struct {
	h          http.Handler
	beforeDone bool
}

func (c conflictingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.h.ServeHTTP(&conflictingWriter{ResponseWriter: w, beforeDone: c.beforeDone}, r)
}

type conflictingWriter struct {
	http.ResponseWriter
	beforeDone bool
	first      *campaign.PointRow
}

func (w *conflictingWriter) Write(p []byte) (int, error) {
	var line ShardLine
	_ = json.Unmarshal(p, &line)
	if line.Done != nil && w.beforeDone {
		w.writeConflict()
	}
	n, err := w.ResponseWriter.Write(p)
	if line.Row != nil && w.first == nil {
		w.first = line.Row
		if !w.beforeDone {
			w.writeConflict()
		}
	}
	return n, err
}

func (w *conflictingWriter) writeConflict() {
	dup := *w.first
	dup.Completed++
	b, _ := json.Marshal(ShardLine{Row: &dup})
	_, _ = w.ResponseWriter.Write(append(b, '\n'))
}

func (w *conflictingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestCoordinatorRejectsConflictingRow: a duplicate row that differs
// from the merged one fails the run with an error naming the point —
// also when it arrives after every point already has its row — and
// nothing from the run enters the shard cache.
func TestCoordinatorRejectsConflictingRow(t *testing.T) {
	for _, beforeDone := range []bool{false, true} {
		t.Run(fmt.Sprintf("beforeDone=%v", beforeDone), func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{ShardPoints: 4, HeartbeatTTL: time.Minute})
			defer coord.Close()
			cache := newMemCache()
			coord.SetCache(cache)
			coordSrv := httptest.NewServer(coord.Handler())
			defer coordSrv.Close()
			h := conflictingHandler{h: NewWorker(WorkerOptions{SimWorkers: 1}).Handler(), beforeDone: beforeDone}
			srv := httptest.NewServer(h)
			defer srv.Close()
			registerWorker(t, coordSrv.URL, "liar", srv.URL, 1)

			_, err := coord.Run(context.Background(), tinySpec())
			if err == nil || !strings.Contains(err.Error(), "conflicting rows for point") {
				t.Fatalf("Run error = %v; want a conflicting-rows error", err)
			}
			cache.mu.Lock()
			defer cache.mu.Unlock()
			if len(cache.m) != 0 {
				t.Fatalf("a conflicting run stored %d shard-cache entries", len(cache.m))
			}
		})
	}
}

// TestShardCacheBadEntries plants unusable entries under shard keys —
// garbage, the wrong number of rows, the wrong point — beside one good
// entry: only the good one is replayed, the others are simulated, and
// the rows are still byte-identical to single-node.
func TestShardCacheBadEntries(t *testing.T) {
	spec := tinySpec()
	want := singleNodeNDJSON(t, spec)
	rows, err := campaign.ReadNDJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	cache := newMemCache()
	put := func(point int, val []byte) {
		h, err := campaign.HashRange(spec.Points(), spec.Seeds, point, point+1)
		if err != nil {
			t.Fatal(err)
		}
		cache.CachePut("shard:"+h, val)
	}
	ndjson := func(rs ...campaign.PointRow) []byte {
		var buf bytes.Buffer
		if err := campaign.WriteRowsNDJSON(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	put(0, []byte("not ndjson\n"))
	put(1, ndjson(rows[1], rows[1]))
	put(2, ndjson(rows[0]))
	put(3, ndjson(rows[3]))

	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 1, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coord.SetCache(cache)
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	srv := httptest.NewServer(NewWorker(WorkerOptions{SimWorkers: 1}).Handler())
	defer srv.Close()
	registerWorker(t, coordSrv.URL, "w0", srv.URL, 1)

	report, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if got := renderNDJSON(t, report); !bytes.Equal(got, want) {
		t.Fatalf("rows differ from single-node:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
	}
	if hits, sent := coord.met.cacheHitShards.Value(), coord.met.dispatched.Value(); hits != 1 || sent != 3 {
		t.Fatalf("cache-hit shards = %v, dispatched = %v; want 1 and 3", hits, sent)
	}
}

// TestCachePeerReplay resubmits a completed spec after every worker is
// gone: every shard must be replayed from the coordinator's shard
// cache, byte-identical, with nothing dispatched and no worker
// simulating anything (sim-cycle counters unchanged).
func TestCachePeerReplay(t *testing.T) {
	spec := tinySpec()
	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 2, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coord.SetCache(newMemCache())
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	workers := make([]*Worker, 2)
	servers := make([]*httptest.Server, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerOptions{SimWorkers: 1})
		servers[i] = httptest.NewServer(workers[i].Handler())
		defer servers[i].Close()
		registerWorker(t, coordSrv.URL, fmt.Sprintf("w%d", i), servers[i].URL, 1)
	}
	cyclesSum := func() uint64 {
		var n uint64
		for _, w := range workers {
			n += w.SimCycles()
		}
		return n
	}

	first, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	baseline := cyclesSum()
	if baseline == 0 {
		t.Fatal("first run simulated zero cycles; nothing to replay")
	}
	dispatched := coord.met.dispatched.Value()
	for _, srv := range servers {
		srv.Close()
	}

	second, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got, want := renderNDJSON(t, second), renderNDJSON(t, first); !bytes.Equal(got, want) {
		t.Fatalf("replayed rows differ from original:\n--- replay ---\n%s\n--- first ---\n%s", got, want)
	}
	if after := cyclesSum(); after != baseline {
		t.Fatalf("replay simulated: sim cycles %d -> %d, want unchanged", baseline, after)
	}
	if after := coord.met.dispatched.Value(); after != dispatched {
		t.Fatalf("replay dispatched: shards %v -> %v, want unchanged", dispatched, after)
	}
	if v := coord.met.cacheHitShards.Value(); v != 2 {
		t.Fatalf("cache-hit shards = %v, want 2 (every replay shard)", v)
	}
}

// progressRecorder keeps a run's progress events; the coordinator's
// shard streams deliver concurrently.
type progressRecorder struct {
	mu     sync.Mutex
	events []trace.Event
}

func (p *progressRecorder) Emit(e trace.Event) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

// TestCoordinatorProgress: a merged row re-emits one RepBegin/RepEnd
// pair per replicate — the only SSE progress of a coordinator — and
// each RepEnd carries the cycles of that replicate's row.
func TestCoordinatorProgress(t *testing.T) {
	var rec progressRecorder
	spec := tinySpec()
	spec.Routings = spec.Routings[:1] // 2 points x 2 seeds
	spec.Progress = &rec

	coord := NewCoordinator(CoordinatorOptions{ShardPoints: 1, HeartbeatTTL: time.Minute})
	defer coord.Close()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewWorker(WorkerOptions{SimWorkers: 1}).Handler())
		defer srv.Close()
		registerWorker(t, coordSrv.URL, fmt.Sprintf("w%d", i), srv.URL, 1)
	}

	report, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	type key struct{ point, rep uint64 }
	begins, ends := map[key]int{}, map[key]int{}
	for _, e := range rec.events {
		k := key{e.Aux, e.PID}
		switch e.Kind {
		case trace.CampaignRepBegin:
			begins[k]++
		case trace.CampaignRepEnd:
			ends[k]++
			if want := report.Rows[k.point].Replicates[k.rep].Cycles; e.Aux2 != want || want == 0 {
				t.Errorf("point %d rep %d: RepEnd carries %d cycles, row has %d", k.point, k.rep, e.Aux2, want)
			}
			if e.Node != -1 || e.Seq != trace.RepStatusOK {
				t.Errorf("point %d rep %d: RepEnd node %d status %d, want -1 and ok", k.point, k.rep, e.Node, e.Seq)
			}
		default:
			t.Errorf("unexpected %v event", e.Kind)
		}
	}
	for point := uint64(0); point < 2; point++ {
		for rep := uint64(0); rep < 2; rep++ {
			k := key{point, rep}
			if begins[k] != 1 || ends[k] != 1 {
				t.Errorf("point %d rep %d: %d begins, %d ends, want 1/1", point, rep, begins[k], ends[k])
			}
		}
	}
	if len(rec.events) != 8 {
		t.Fatalf("%d progress events, want 8", len(rec.events))
	}
}

// TestUndeliveredRanges covers the redispatch carve-up.
func TestUndeliveredRanges(t *testing.T) {
	cases := []struct {
		lo        int
		delivered []bool
		want      [][2]int
	}{
		{0, []bool{true, true}, nil},
		{4, []bool{false, false}, [][2]int{{4, 6}}},
		{2, []bool{true, false, false, true, false}, [][2]int{{3, 5}, {6, 7}}},
		{0, []bool{false, true, false}, [][2]int{{0, 1}, {2, 3}}},
	}
	for i, tc := range cases {
		got := undeliveredRanges(tc.lo, tc.delivered)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestBackoff(t *testing.T) {
	base, ceil := 100*time.Millisecond, time.Second
	if d := backoff(base, ceil, 0); d != base {
		t.Fatalf("attempt 0: %v", d)
	}
	if d := backoff(base, ceil, 2); d != 400*time.Millisecond {
		t.Fatalf("attempt 2: %v", d)
	}
	if d := backoff(base, ceil, 10); d != ceil {
		t.Fatalf("attempt 10: %v", d)
	}
	if d := backoff(base, ceil, 200); d != ceil {
		t.Fatalf("overflow attempt: %v", d)
	}
}
