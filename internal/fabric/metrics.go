package fabric

import (
	"time"

	"ftnoc/internal/obs"
)

// coordMetrics is the coordinator's nocd_fabric_* surface. Event-driven
// counters are bumped inline by the dispatcher and executors; fleet and
// queue gauges are func-backed reads of coordinator state at scrape
// time. The registry mounts on the daemon's /metrics through
// serve.Options.ExtraMetrics.
type coordMetrics struct {
	reg *obs.Registry

	dispatched     *obs.Counter
	completed      *obs.Counter
	failures       *obs.Counter
	retries        *obs.Counter
	rows           *obs.Counter
	simCycles      *obs.Counter
	cacheHitShards *obs.Counter
	breakerOpens   *obs.Counter
	tenantQueue    *obs.GaugeVec
	tenantInflight *obs.GaugeVec
}

func newCoordMetrics(c *Coordinator) *coordMetrics {
	reg := obs.NewRegistry()
	m := &coordMetrics{
		reg: reg,
		dispatched: reg.Counter("nocd_fabric_shards_dispatched_total",
			"Shards handed to a worker (redispatches included)."),
		completed: reg.Counter("nocd_fabric_shards_completed_total",
			"Shard dispatches that delivered every row they covered."),
		failures: reg.Counter("nocd_fabric_shard_failures_total",
			"Shard dispatches that failed (transport error, worker error line, or truncated stream)."),
		retries: reg.Counter("nocd_fabric_shard_retries_total",
			"Replacement shards enqueued for undelivered point ranges."),
		rows: reg.Counter("nocd_fabric_rows_received_total",
			"Point rows streamed back from workers (duplicates included)."),
		simCycles: reg.Counter("nocd_fabric_sim_cycles_total",
			"Simulated network cycles reported by shard done lines."),
		cacheHitShards: reg.Counter("nocd_fabric_cache_hit_shards_total",
			"Shards replayed from the coordinator's shard cache instead of dispatched."),
		breakerOpens: reg.Counter("nocd_fabric_breaker_opens_total",
			"Times a worker's circuit breaker opened after consecutive failures."),
		tenantQueue: reg.GaugeVec("nocd_fabric_tenant_queue_depth",
			"Shards queued at the coordinator, per tenant.", "tenant"),
		tenantInflight: reg.GaugeVec("nocd_fabric_tenant_inflight_shards",
			"Shards currently executing on workers, per tenant.", "tenant"),
	}
	reg.GaugeFunc("nocd_fabric_workers_registered",
		"Workers the coordinator has ever heard from (stale included).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.workers))
		})
	reg.GaugeFunc("nocd_fabric_workers_alive",
		"Workers whose last heartbeat is within the liveness TTL.",
		func() float64 {
			now := time.Now()
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.aliveWorkersLocked(now))
		})
	reg.GaugeFunc("nocd_fabric_queue_depth",
		"Shards queued at the coordinator across all tenants.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, tn := range c.tenants {
				n += len(tn.queue)
			}
			return float64(n)
		})
	return m
}

// Metrics is the coordinator's registry, for serve.Options.ExtraMetrics.
func (c *Coordinator) Metrics() *obs.Registry { return c.met.reg }

// noteTenantLocked mirrors one tenant's queue and in-flight depth into
// the per-tenant gauge families; callers hold c.mu.
func (c *Coordinator) noteTenantLocked(tn *tenantState) {
	c.met.tenantQueue.With(tn.name).Set(float64(len(tn.queue)))
	c.met.tenantInflight.With(tn.name).Set(float64(tn.inflight))
}
