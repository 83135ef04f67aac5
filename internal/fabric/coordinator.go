package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/serve"
	"ftnoc/internal/trace"
)

// CacheStore is the content-addressed byte store the coordinator keeps
// shard results in. *serve.Server satisfies it with the same LRU cache
// that serves whole-campaign results, so shard entries and report entries
// share one byte budget and one hit/miss ledger.
type CacheStore interface {
	CacheGet(key string) ([]byte, bool)
	CachePut(key string, val []byte)
}

// CoordinatorOptions tunes the dispatch scheduler. The zero value is
// usable; every field has a default chosen for small fleets.
type CoordinatorOptions struct {
	// ShardPoints is the maximum grid points per dispatched shard
	// (default 8). Smaller shards spread better and lose less work when
	// a worker dies; larger ones amortise per-request overhead.
	ShardPoints int
	// HeartbeatTTL is how stale a worker's last heartbeat may be before
	// the dispatcher considers it dead (default 15s). Workers are told
	// to heartbeat at a third of this.
	HeartbeatTTL time.Duration
	// TenantTokens caps one tenant's in-flight shards (default 0 = no
	// cap). With a cap of k, a tenant can occupy at most k worker slots
	// no matter how much it has queued — hard isolation on top of fair
	// queueing's proportional sharing.
	TenantTokens int
	// Logger receives dispatch lifecycle records. Nil discards.
	Logger *slog.Logger
}

// Failure handling. A worker that accepts a shard and hangs forfeits it
// after dispatchTimeout. The undelivered remainder of a failed shard is
// redispatched after an exponential backoff (backoffBase doubling per
// attempt, capped at backoffCap); after maxAttempts dispatches of one
// shard lineage the whole campaign fails. Zero capacity is not an
// attempt: a shard waiting for any live worker waits indefinitely.
// breakerTrip consecutive failures open a worker's circuit breaker: it
// receives no dispatches for breakerCooldown, then gets another chance.
// Heartbeats alone never close an open breaker — only the cooldown does.
const (
	dispatchTimeout = 10 * time.Minute
	backoffBase     = 250 * time.Millisecond
	backoffCap      = 5 * time.Second
	maxAttempts     = 8
	breakerTrip     = 3
	breakerCooldown = 10 * time.Second
)

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.ShardPoints <= 0 {
		o.ShardPoints = 8
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Coordinator owns the worker fleet and the dispatch scheduler. Its Run
// method is a drop-in serve.Options.Runner: it produces a Report whose
// rendered rows are byte-identical to the single-node engine's, so the
// daemon's queue, cache and SSE layers work unchanged above it.
type Coordinator struct {
	opts   CoordinatorOptions
	log    *slog.Logger
	met    *coordMetrics
	runSeq atomic.Uint64
	// timeout bounds one dispatch; dispatchTimeout unless shortened in
	// this package.
	timeout time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	cache   CacheStore
	workers map[string]*workerState
	tenants map[string]*tenantState
	vclock  float64
	closed  bool
}

// workerState is one registered worker: its capacity, its liveness, and
// its circuit breaker.
type workerState struct {
	name     string
	url      string
	slots    int
	busy     int
	lastSeen time.Time
	// fails counts consecutive shard failures; reaching breakerTrip opens
	// the breaker until openUntil.
	fails     int
	openUntil time.Time
}

// tenantState is one client's WFQ position: a FIFO of queued shards, the
// virtual time its service has accrued, and its in-flight count.
type tenantState struct {
	name     string
	vtime    float64
	inflight int
	queue    []*task
}

// task is one dispatchable shard of one campaign run.
type task struct {
	run       *campaignRun
	lo, hi    int
	attempt   int
	notBefore time.Time
	cost      float64        // points × replicates, the WFQ service quantum
	key       string         // shard-cache key; empty without a cache or if unhashable
	failedOn  []*workerState // workers a dispatch of this range failed on
}

// campaignRun is one Run invocation's assembly state: rows keyed by
// global point index, filled as the cache replays them or workers stream
// them back (online — the first copy of each row is merged the moment it
// arrives; a later copy must equal it, or the run fails with conflict).
type campaignRun struct {
	c      *Coordinator
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	spec   campaign.Spec
	points []campaign.Point // the one grid expansion, for shard keys
	wire   []byte
	tenant string
	reps   int
	cache  CacheStore // nil: no shard cache

	mu       sync.Mutex
	rows     []*campaign.PointRow
	got      int
	pending  int // tasks queued or in flight
	err      error
	conflict error // a duplicate row that differed from the merged one

	once sync.Once
	done chan struct{}
	// idle closes when pending reaches zero: every task retired, no
	// streams in flight. Run waits for it so shard telemetry (done
	// lines, completion counters) is fully accounted before the report
	// is returned.
	idleOnce sync.Once
	idle     chan struct{}
}

// ended reports that the run needs no further dispatching: it resolved
// (done closed) or its context died. Queued tasks of ended runs are
// purged instead of dispatched.
func (r *campaignRun) ended() bool {
	select {
	case <-r.done:
		return true
	default:
		return r.ctx.Err() != nil
	}
}

// NewCoordinator builds a coordinator and starts its dispatcher.
// Close releases it.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		log:     opts.Logger,
		timeout: dispatchTimeout,
		workers: make(map[string]*workerState),
		tenants: make(map[string]*tenantState),
	}
	c.cond = sync.NewCond(&c.mu)
	c.met = newCoordMetrics(c)
	go c.dispatcher()
	return c
}

// SetCache installs the shard cache. Without one every shard is
// dispatched. The daemon builds its serve.Server with the coordinator's
// Run as Runner, then hands the server back here as the store.
func (c *Coordinator) SetCache(store CacheStore) {
	c.mu.Lock()
	c.cache = store
	c.mu.Unlock()
}

// Close stops the dispatcher. Queued shards are abandoned; callers
// blocked in Run return when their contexts cancel.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *Coordinator) broadcast() { c.cond.Broadcast() }

// Run executes the campaign across the fleet and assembles the report
// from cached and streamed rows. It is shaped exactly like campaign.Run:
// the only top-level errors are an empty/unshippable grid, exhausted
// redispatch, or a conflicting duplicate row; cancellation returns the
// partial rows with Aborted set.
func (c *Coordinator) Run(ctx context.Context, spec campaign.Spec) (*campaign.Report, error) {
	start := time.Now()
	points := spec.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("campaign: empty grid")
	}
	wire, err := spec.WireJSON()
	if err != nil {
		return nil, err
	}
	tenant := serve.TenantFrom(ctx)
	if tenant == "" {
		tenant = "anonymous"
	}
	reps := spec.Seeds
	if reps <= 0 {
		reps = 1
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &campaignRun{
		c:      c,
		id:     fmt.Sprintf("run-%d", c.runSeq.Add(1)),
		ctx:    runCtx,
		cancel: cancel,
		spec:   spec,
		points: points,
		wire:   wire,
		tenant: tenant,
		reps:   reps,
		rows:   make([]*campaign.PointRow, len(points)),
		done:   make(chan struct{}),
		idle:   make(chan struct{}),
	}
	c.mu.Lock()
	run.cache = c.cache
	c.mu.Unlock()

	// Shards the cache already holds replay through deliver; only the
	// rest queue for workers.
	var tasks []*task
	for lo := 0; lo < len(points); lo += c.opts.ShardPoints {
		t := run.newTask(lo, min(lo+c.opts.ShardPoints, len(points)), 0, time.Time{})
		if run.replay(t) {
			c.met.cacheHitShards.Inc()
		} else {
			tasks = append(tasks, t)
		}
	}
	run.pending = len(tasks)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("fabric: coordinator closed")
	}
	tn := c.tenantLocked(tenant)
	tn.queue = append(tn.queue, tasks...)
	c.noteTenantLocked(tn)
	workersNow := c.aliveWorkersLocked(time.Now())
	c.mu.Unlock()
	c.broadcast()
	c.log.Info("campaign dispatched to fabric",
		"run", run.id, "tenant", tenant, "points", len(points),
		"shards", len(tasks), "workers_alive", workersNow)

	select {
	case <-run.done:
	case <-ctx.Done():
		run.finish(context.Cause(ctx))
	}
	// Wait for every task to settle — queued ones purge on the next
	// dispatcher wake, in-flight streams drain (or abort, if the run
	// failed) — so counters, the cache and the report are final when we
	// return. A run served wholly from the cache queued nothing.
	if len(tasks) > 0 {
		<-run.idle
	}

	run.mu.Lock()
	got, runErr, conflict := run.got, run.err, run.conflict
	ordered := make([]campaign.PointRow, 0, got)
	for _, row := range run.rows {
		if row != nil {
			ordered = append(ordered, *row)
		}
	}
	run.mu.Unlock()

	report := &campaign.Report{
		Rows:    ordered,
		Workers: workersNow,
		Elapsed: time.Since(start),
	}
	switch {
	case conflict != nil:
		// Checked first: a conflicting duplicate can arrive after the
		// last row completed the run, on a stream that drained above.
		return nil, conflict
	case got == len(points):
		// Complete — even if the context raced cancellation in.
		return report, nil
	case ctx.Err() != nil:
		report.Aborted = true
		return report, nil
	default:
		if runErr == nil {
			runErr = errors.New("fabric: run ended incomplete")
		}
		return nil, runErr
	}
}

// newTask builds the dispatchable shard [lo, hi), keyed for the shard
// cache when the run has one. An unhashable shard (it contains an
// invalid point) gets no key: a worker simulates it and streams the
// validation-error rows, exactly as the single-node engine records them.
func (r *campaignRun) newTask(lo, hi, attempt int, notBefore time.Time) *task {
	t := &task{
		run: r, lo: lo, hi: hi, attempt: attempt, notBefore: notBefore,
		cost: float64((hi - lo) * r.reps),
	}
	if r.cache != nil {
		if h, err := campaign.HashRange(r.points, r.reps, lo, hi); err == nil {
			t.key = "shard:" + h
		}
	}
	return t
}

// replay serves t from the shard cache and reports whether it did. Only
// an entry that decodes to exactly the rows lo..hi-1 counts; those rows
// then merge through deliver like streamed ones. Anything else means
// simulating — the cache is an optimisation, never a correctness
// dependency.
func (r *campaignRun) replay(t *task) bool {
	if t.key == "" {
		return false
	}
	val, ok := r.cache.CacheGet(t.key)
	if !ok {
		return false
	}
	rows, err := campaign.ReadNDJSON(bytes.NewReader(val))
	ok = err == nil && len(rows) == t.hi-t.lo
	for i := 0; ok && i < len(rows); i++ {
		ok = rows[i].Point == t.lo+i
	}
	if !ok {
		r.c.log.Warn("shard cache entry unusable, simulating",
			"run", r.id, "lo", t.lo, "hi", t.hi, "rows", len(rows), "err", err)
		return false
	}
	for _, row := range rows {
		r.deliver(row)
	}
	return true
}

// remember stores a completed task's merged rows in the shard cache,
// rendered exactly as replay reads them back. A run that saw a
// conflicting duplicate stores nothing: its first copies are suspect.
func (r *campaignRun) remember(t *task) {
	if t.key == "" {
		return
	}
	rows := make([]campaign.PointRow, 0, t.hi-t.lo)
	r.mu.Lock()
	for _, row := range r.rows[t.lo:t.hi] {
		rows = append(rows, *row)
	}
	conflict := r.conflict
	r.mu.Unlock()
	var buf bytes.Buffer
	if conflict == nil && campaign.WriteRowsNDJSON(&buf, rows) == nil {
		r.cache.CachePut(t.key, buf.Bytes())
	}
}

// tenantLocked interns the tenant's WFQ state. A tenant that was idle
// (or new) starts at the global virtual clock so its backlog competes
// fairly from now on instead of replaying virtual time it never used —
// this is what lets a fresh interactive tenant overtake a long-queued
// sweep immediately.
func (c *Coordinator) tenantLocked(name string) *tenantState {
	tn := c.tenants[name]
	if tn == nil {
		tn = &tenantState{name: name}
		c.tenants[name] = tn
	}
	if tn.vtime < c.vclock {
		tn.vtime = c.vclock
	}
	return tn
}

// dispatcher is the scheduler loop: one goroutine that repeatedly picks
// the (tenant, shard, worker) triple allowed by WFQ order, token quotas,
// worker capacity and circuit breakers, and hands the shard to an
// executor goroutine. All waiting happens on the condition variable;
// time-gated events (backoff expiry, breaker cooldown) broadcast through
// time.AfterFunc rather than polling.
func (c *Coordinator) dispatcher() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// On Close, settle whatever is still queued so blocked Runs can
	// observe their fate instead of waiting on a dispatcher that is gone.
	defer func() {
		for _, tn := range c.tenants {
			for _, t := range tn.queue {
				t.run.settle(0)
			}
			tn.queue = nil
			c.noteTenantLocked(tn)
		}
	}()
	for !c.closed {
		now := time.Now()
		t, tn, w := c.pickLocked(now)
		if t == nil {
			c.cond.Wait()
			continue
		}
		// WFQ accounting (unit weights): the tenant pays for the shard in
		// virtual time; the global clock follows the served tenant so
		// newly active tenants join at the current position.
		if tn.vtime < c.vclock {
			tn.vtime = c.vclock
		}
		c.vclock = tn.vtime
		tn.vtime += t.cost
		tn.inflight++
		w.busy++
		c.noteTenantLocked(tn)
		c.met.dispatched.Inc()
		go c.execute(t, tn, w)
	}
}

// pickLocked chooses the next dispatch: the eligible shard of the
// minimum-virtual-time tenant, paired with the least-loaded live worker
// that has not failed it. It returns nils when nothing can be dispatched
// right now. Shards whose runs have finished (canceled, or completed
// through duplicates) are purged here.
func (c *Coordinator) pickLocked(now time.Time) (*task, *tenantState, *workerState) {
	c.purgeLocked()
	var bestT *tenantState
	var bestIdx int
	var bestW *workerState
	for _, tn := range c.tenants {
		if c.opts.TenantTokens > 0 && tn.inflight >= c.opts.TenantTokens {
			continue
		}
		for i, t := range tn.queue {
			if t.notBefore.After(now) {
				continue
			}
			if w := c.freeWorkerLocked(now, t.failedOn); w != nil {
				if bestT == nil || tn.vtime < bestT.vtime ||
					(tn.vtime == bestT.vtime && tn.name < bestT.name) {
					bestT, bestIdx, bestW = tn, i, w
				}
				break
			}
		}
	}
	if bestT == nil {
		return nil, nil, nil
	}
	t := bestT.queue[bestIdx]
	bestT.queue = append(bestT.queue[:bestIdx], bestT.queue[bestIdx+1:]...)
	return t, bestT, bestW
}

// purgeLocked drops queued shards of ended runs (resolved, canceled, or
// completed through redispatch duplicates), settling each so its run's
// idle accounting closes. It runs on every dispatcher wake — even when
// no worker is free — so ended runs never wait on capacity to drain.
func (c *Coordinator) purgeLocked() {
	for _, tn := range c.tenants {
		live := tn.queue[:0]
		for _, t := range tn.queue {
			if t.run.ended() {
				t.run.settle(0)
			} else {
				live = append(live, t)
			}
		}
		if len(live) != len(tn.queue) {
			tn.queue = live
			c.noteTenantLocked(tn)
		}
	}
}

// freeWorkerLocked returns the live, breaker-closed worker with the most
// spare capacity (ties by name, for deterministic tests), or nil. A
// worker in failed is passed over while some live worker is not in it:
// a shard that timed out on a stalled worker goes elsewhere, and one that
// failed everywhere may go anywhere.
func (c *Coordinator) freeWorkerLocked(now time.Time, failed []*workerState) *workerState {
	avoid := false // some live worker has not failed the shard
	for _, w := range c.workers {
		avoid = avoid || now.Sub(w.lastSeen) <= c.opts.HeartbeatTTL && !slices.Contains(failed, w)
	}
	var best *workerState
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) > c.opts.HeartbeatTTL {
			continue
		}
		if w.busy >= w.slots || w.openUntil.After(now) || avoid && slices.Contains(failed, w) {
			continue
		}
		if best == nil || w.busy < best.busy || (w.busy == best.busy && w.name < best.name) {
			best = w
		}
	}
	return best
}

func (c *Coordinator) aliveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.opts.HeartbeatTTL {
			n++
		}
	}
	return n
}

// execute runs one dispatched shard to its conclusion: stream the rows,
// then either retire the task or carve the undelivered remainder into
// fresh backoff-delayed tasks. It owns the worker's failure accounting.
func (c *Coordinator) execute(t *task, tn *tenantState, w *workerState) {
	delivered := make([]bool, t.hi-t.lo)
	err := c.streamShard(t, w, delivered)

	canceled := t.run.ctx.Err() != nil
	c.mu.Lock()
	w.busy--
	tn.inflight--
	c.noteTenantLocked(tn)
	if err != nil && !canceled {
		// A stream cut by the run finishing (completion through a
		// duplicate, or client cancel) says nothing about the worker.
		c.met.failures.Inc()
		w.fails++
		if w.fails >= breakerTrip {
			w.fails = 0
			w.openUntil = time.Now().Add(breakerCooldown)
			c.met.breakerOpens.Inc()
			c.log.Warn("worker circuit breaker opened",
				"worker", w.name, "cooldown", breakerCooldown)
			time.AfterFunc(breakerCooldown, c.broadcast)
		}
	} else if err == nil {
		w.fails = 0
	}
	c.mu.Unlock()

	if err != nil && !canceled {
		c.log.Warn("shard dispatch failed",
			"run", t.run.id, "worker", w.name, "lo", t.lo, "hi", t.hi,
			"attempt", t.attempt, "err", err)
	}
	// Redispatch exactly what did not arrive. Rows that made it before
	// the failure are merged and stay merged — a killed worker costs its
	// unfinished points, not its shard. Full coverage counts as
	// completion even when the run finishing mid-stream cut the
	// connection out from under the trailing done line.
	missing := undeliveredRanges(t.lo, delivered)
	if len(missing) == 0 {
		c.met.completed.Inc()
		t.run.remember(t)
		t.run.settle(0)
		c.broadcast()
		return
	}
	if canceled {
		t.run.settle(0)
		c.broadcast()
		return
	}
	if err == nil {
		err = fmt.Errorf("fabric: worker %s reported done but %d ranges missing", w.name, len(missing))
	}
	if t.attempt+1 >= maxAttempts {
		t.run.finish(fmt.Errorf("fabric: shard [%d,%d) failed after %d attempts: %w",
			t.lo, t.hi, t.attempt+1, err))
		t.run.settle(0)
		c.broadcast()
		return
	}
	delay := backoff(backoffBase, backoffCap, t.attempt)
	notBefore := time.Now().Add(delay)
	retries := make([]*task, 0, len(missing))
	for _, r := range missing {
		retry := t.run.newTask(r[0], r[1], t.attempt+1, notBefore)
		retry.failedOn = append(slices.Clip(t.failedOn), w)
		retries = append(retries, retry)
	}
	c.mu.Lock()
	tn.queue = append(tn.queue, retries...)
	c.noteTenantLocked(tn)
	c.mu.Unlock()
	c.met.retries.Add(float64(len(retries)))
	t.run.settle(len(retries))
	time.AfterFunc(delay, c.broadcast)
}

// streamShard performs the HTTP dispatch and merges rows as they arrive,
// marking this task's coverage in delivered. It returns nil only after a
// Done line; a stream that ends any other way is a failure whose
// undelivered remainder the caller redispatches.
func (c *Coordinator) streamShard(t *task, w *workerState, delivered []bool) error {
	ctx, cancel := context.WithTimeout(t.run.ctx, c.timeout)
	defer cancel()
	body, err := json.Marshal(ShardRequest{Job: t.run.id, Spec: t.run.wire, Lo: t.lo, Hi: t.hi})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+PathShards, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fabric: worker %s: %s: %s", w.name, resp.Status, bytes.TrimSpace(b))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var line ShardLine
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("fabric: worker %s: shard stream ended without done line", w.name)
			}
			return fmt.Errorf("fabric: worker %s: shard stream: %w", w.name, err)
		}
		switch {
		case line.Row != nil:
			if line.Row.Point >= t.lo && line.Row.Point < t.hi {
				delivered[line.Row.Point-t.lo] = true
			}
			c.met.rows.Inc()
			t.run.deliver(*line.Row)
		case line.Done != nil:
			c.met.simCycles.Add(float64(line.Done.SimCycles))
			return nil
		case line.Error != "":
			return fmt.Errorf("fabric: worker %s: %s", w.name, line.Error)
		default:
			return fmt.Errorf("fabric: worker %s: empty shard line", w.name)
		}
	}
}

// deliver is the run's one row merge, for cached and streamed rows
// alike. The first copy of a point's row wins. A redispatch duplicate is
// dropped when it equals that copy, as determinism says it must; one that
// differs falsifies the determinism law, so it fails the run instead of
// being merged. A newly merged row re-emits the replicate spans the
// single-node engine would have produced (on worker lane -1, with no
// wall-clock timestamps), so SSE subscribers see per-point progress
// from a distributed run too.
func (r *campaignRun) deliver(row campaign.PointRow) {
	r.mu.Lock()
	if row.Point < 0 || row.Point >= len(r.rows) {
		r.mu.Unlock()
		return
	}
	if prev := r.rows[row.Point]; prev != nil {
		var err error
		if !reflect.DeepEqual(*prev, row) {
			err = fmt.Errorf("fabric: conflicting rows for point %d", row.Point)
			if r.conflict == nil {
				r.conflict = err
			}
		}
		r.mu.Unlock()
		if err != nil {
			r.finish(err)
		}
		return
	}
	r.rows[row.Point] = &row
	r.got++
	complete := r.got == len(r.rows)
	r.mu.Unlock()

	if sink := r.spec.Progress; sink != nil {
		for i, rep := range row.Replicates {
			sink.Emit(trace.Event{Kind: trace.CampaignRepBegin, Node: -1, Port: -1, VC: -1,
				Aux: uint64(row.Point), PID: uint64(i), Aux2: rep.Seed})
			sink.Emit(trace.Event{Kind: trace.CampaignRepEnd, Node: -1, Port: -1, VC: -1,
				Aux: uint64(row.Point), PID: uint64(i), Aux2: rep.Cycles,
				Seq: trace.RepStatusOf(rep.Error != "", rep.Aborted)})
		}
	}
	if complete {
		r.finish(nil)
	}
}

// settle retires one outstanding task and enqueues extra replacements
// (0 when the task is done for good). When the last task retires with
// rows still missing, the run cannot ever complete — surface that
// instead of hanging. The last settle also releases Run's idle wait.
func (r *campaignRun) settle(replacements int) {
	r.mu.Lock()
	r.pending += replacements - 1
	drained := r.pending == 0
	starved := drained && r.got < len(r.rows)
	r.mu.Unlock()
	if starved {
		r.finish(errors.New("fabric: all shards retired with rows missing"))
	}
	if drained {
		r.idleOnce.Do(func() { close(r.idle) })
	}
}

// finish resolves the run exactly once. A nil err is completion: the
// in-flight streams are left to drain naturally (their next line is the
// done trailer, so this is cheap) and queued leftovers purge on the next
// dispatcher wake. Any other cause (cancellation, exhausted redispatch)
// additionally aborts every in-flight shard via the run context.
func (r *campaignRun) finish(err error) {
	r.once.Do(func() {
		r.mu.Lock()
		r.err = err
		r.mu.Unlock()
		close(r.done)
		if err != nil {
			r.cancel()
		}
		r.c.broadcast()
	})
}

// undeliveredRanges lists the contiguous [lo, hi) subranges of the
// shard not covered by delivered rows.
func undeliveredRanges(lo int, delivered []bool) [][2]int {
	var out [][2]int
	for i := 0; i < len(delivered); {
		if delivered[i] {
			i++
			continue
		}
		j := i
		for j < len(delivered) && !delivered[j] {
			j++
		}
		out = append(out, [2]int{lo + i, lo + j})
		i = j
	}
	return out
}

func backoff(base, max time.Duration, attempt int) time.Duration {
	d := base << attempt
	if d > max || d <= 0 {
		return max
	}
	return d
}

// WorkerList snapshots the fleet for the GET PathWorkers listing, sorted
// by name.
func (c *Coordinator) WorkerList() []WorkerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			Name: w.name, URL: w.url, Slots: w.slots, Busy: w.busy,
			Alive:       now.Sub(w.lastSeen) <= c.opts.HeartbeatTTL,
			LastSeenAgo: now.Sub(w.lastSeen).Seconds(),
			BreakerOpen: w.openUntil.After(now),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
