package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/serve"
)

// stubShardHandler implements the shard protocol without simulating:
// it sleeps `delay` per shard, then emits one synthetic row per point.
// It tracks concurrency so token-quota tests can assert the cap held.
type stubShardHandler struct {
	delay time.Duration
	cur   atomic.Int64
	peak  atomic.Int64
}

func (s *stubShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		peak := s.peak.Load()
		if cur <= peak || s.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	time.Sleep(s.delay)
	enc := json.NewEncoder(w)
	for p := req.Lo; p < req.Hi; p++ {
		_ = enc.Encode(ShardLine{Row: &campaign.PointRow{Point: p}})
	}
	_ = enc.Encode(ShardLine{Done: &ShardDone{}})
}

// sweepSpec builds an n-point grid by fanning out the injection-rate
// axis; the stub never simulates, so only the grid shape matters.
func sweepSpec(n int) campaign.Spec {
	spec := campaign.Spec{Base: tinyBase(), Seeds: 1}
	for i := 0; i < n; i++ {
		spec.InjectionRates = append(spec.InjectionRates, 0.001*float64(i+1))
	}
	return spec
}

// TestTenantFairness submits a 100-point sweep for one tenant, then a
// 2-point interactive run for another while the sweep is mid-flight.
// Fair queueing must let the interactive run jump the sweep's
// backlog and complete first, and both tenants must show up in the
// per-tenant queue-depth metrics.
func TestTenantFairness(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		ShardPoints:  1,
		HeartbeatTTL: time.Minute,
	})
	defer coord.Close()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	stub := &stubShardHandler{delay: 2 * time.Millisecond}
	stubSrv := httptest.NewServer(stub)
	defer stubSrv.Close()
	registerWorker(t, coordSrv.URL, "w0", stubSrv.URL, 1)

	sweepDone := make(chan time.Time, 1)
	go func() {
		ctx := serve.WithTenant(context.Background(), "sweep")
		if _, err := coord.Run(ctx, sweepSpec(100)); err != nil {
			t.Errorf("sweep run: %v", err)
		}
		sweepDone <- time.Now()
	}()

	// Wait until the sweep is actually being served before the
	// interactive tenant shows up.
	waitFor(t, func() bool { return coord.met.dispatched.Value() >= 3 })

	var metrics bytes.Buffer
	if err := coord.Metrics().WriteText(&metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(metrics.String(), `nocd_fabric_tenant_queue_depth{tenant="sweep"}`) {
		t.Fatalf("per-tenant queue-depth series missing:\n%s", metrics.String())
	}

	ctx := serve.WithTenant(context.Background(), "interactive")
	if _, err := coord.Run(ctx, sweepSpec(2)); err != nil {
		t.Fatalf("interactive run: %v", err)
	}
	interactiveDone := time.Now()

	select {
	case d := <-sweepDone:
		t.Fatalf("sweep finished at %v, before the interactive run (%v): WFQ did not protect the small tenant", d, interactiveDone)
	default:
	}
	if d := <-sweepDone; d.Before(interactiveDone) {
		t.Fatalf("sweep finished %v before interactive %v", d, interactiveDone)
	}

	metrics.Reset()
	if err := coord.Metrics().WriteText(&metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, series := range []string{
		`nocd_fabric_tenant_queue_depth{tenant="sweep"}`,
		`nocd_fabric_tenant_queue_depth{tenant="interactive"}`,
		`nocd_fabric_tenant_inflight_shards{tenant="interactive"}`,
	} {
		if !strings.Contains(metrics.String(), series) {
			t.Errorf("metrics missing series %s", series)
		}
	}
}

// TestTenantTokens caps one tenant at a single in-flight shard across a
// three-slot fleet, then removes the cap and checks the fleet saturates.
func TestTenantTokens(t *testing.T) {
	runWith := func(tokens int) int64 {
		coord := NewCoordinator(CoordinatorOptions{
			ShardPoints:  1,
			HeartbeatTTL: time.Minute,
			TenantTokens: tokens,
		})
		defer coord.Close()
		coordSrv := httptest.NewServer(coord.Handler())
		defer coordSrv.Close()
		stub := &stubShardHandler{delay: 20 * time.Millisecond}
		stubSrv := httptest.NewServer(stub)
		defer stubSrv.Close()
		for i := 0; i < 3; i++ {
			registerWorker(t, coordSrv.URL, fmt.Sprintf("w%d", i), stubSrv.URL, 1)
		}
		if _, err := coord.Run(context.Background(), sweepSpec(9)); err != nil {
			t.Fatalf("run with tokens=%d: %v", tokens, err)
		}
		return stub.peak.Load()
	}
	if peak := runWith(1); peak != 1 {
		t.Fatalf("with a 1-token quota, peak in-flight = %d, want 1", peak)
	}
	if peak := runWith(0); peak < 2 {
		t.Fatalf("uncapped 9-shard run on 3 workers peaked at %d in-flight, want >= 2", peak)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
