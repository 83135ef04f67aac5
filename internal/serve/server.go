// Package serve turns the campaign engine into long-running shared
// infrastructure: an HTTP simulation service with a bounded job queue,
// a content-addressed result cache, and live per-point progress
// streaming over SSE.
//
// Design constraints:
//
//   - Explicit backpressure. The queue is a bounded buffer; when it is
//     full, submissions are refused with 429 and a Retry-After hint
//     instead of being accepted into unbounded memory.
//   - Sound caching. Results are addressed by the canonical hash of the
//     validated spec (campaign.Spec.CanonicalHash). Campaign runs are
//     deterministic and scheduling-independent, so a cache hit is
//     byte-identical to a fresh run — dedup is free, not approximate.
//     Identical in-flight submissions coalesce onto one job.
//   - Graceful lifecycle. Shutdown drains running jobs until its
//     context expires, then cancels them; canceled campaigns still
//     return their partial-but-valid results, SSE clients always
//     receive a terminal event, and completed results are never lost.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/obs"
)

// Options configures a Server. The zero value is usable: every field
// has a sensible default.
type Options struct {
	// Workers is the number of campaigns executed concurrently
	// (default 1 — each campaign parallelises internally).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs
	// (default 16). Beyond it, submissions get 429.
	QueueDepth int
	// CacheBytes is the result cache's byte budget (default 64 MiB).
	CacheBytes int64
	// RetryAfter is the backpressure hint returned with 429 responses
	// (default 5s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// MaxJobs bounds retained finished-job records (default 1024);
	// beyond it the oldest finished jobs are forgotten. Their results
	// may still be served from the cache on resubmission.
	MaxJobs int
	// Logger receives the daemon's structured records: per-request logs
	// (with request ids), job lifecycle transitions, and replicate
	// failures surfaced by the campaign engine. Nil discards everything.
	Logger *slog.Logger
	// Runner executes submitted campaigns (nil means campaign.Run, the
	// in-process engine). The distributed coordinator substitutes its
	// fabric scheduler here: same contract — a Report whose rendered rows
	// are byte-identical to what campaign.Run would produce — so the
	// queue, cache and SSE machinery work unchanged above it.
	Runner func(ctx context.Context, spec campaign.Spec) (*campaign.Report, error)
	// Fabric, when non-nil, is mounted under /fabric/ on the service mux
	// (instrumented like every other route): the coordinator's worker
	// registration/heartbeat endpoint, or the worker's shard endpoint,
	// depending on the daemon's role.
	Fabric http.Handler
	// ExtraMetrics, when non-nil, is appended to every /metrics scrape
	// after the server's own families — the fabric layer exposes its
	// nocd_fabric_* families through the same endpoint this way. Family
	// names must not collide with the server's.
	ExtraMetrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 5 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// runner abstracts campaign execution so tests can substitute
// controllable workloads for real simulations.
type runner func(ctx context.Context, spec campaign.Spec) (*campaign.Report, error)

// Server is the simulation service. It implements http.Handler; the
// daemon (cmd/nocd) owns the listener and calls Shutdown on SIGTERM.
type Server struct {
	opts  Options
	run   runner
	mux   *http.ServeMux
	cache *cache
	start time.Time
	log   *slog.Logger
	obs   *serverObs

	reqSeq atomic.Uint64 // request-id source for the instrument middleware

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*job
	byHash   map[string]*job // active (non-terminal) job per hash, for coalescing
	finished []string        // finished job ids, oldest first, for retention
	jobc     chan *job
	wg       sync.WaitGroup
	// avgRunSeconds is an EWMA over recent job run durations — the basis
	// of the estimated-wait hint in 429 backpressure bodies.
	avgRunSeconds float64
}

// tenantKey carries the submitting client's tenant id through a job's
// context, from the HTTP layer down to the runner.
type tenantKey struct{}

// WithTenant returns a context carrying the submitting client's tenant
// id — the identity the fabric coordinator's fair queueing schedules by.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom returns the tenant id carried by ctx, or "" when absent.
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// CacheGet returns the result bytes stored under key in the server's
// content-addressed cache. Together with CachePut it backs the fabric
// coordinator's shard cache; shard lookups share the cache's hit/miss
// counters with client submissions.
func (s *Server) CacheGet(key string) ([]byte, bool) { return s.cache.get(key) }

// CachePut stores val under key in the server's content-addressed cache
// (subject to the usual byte budget and LRU eviction).
func (s *Server) CachePut(key string, val []byte) { s.cache.put(key, val) }

// New returns a ready Server executing campaigns with Options.Runner
// (campaign.Run by default).
func New(opts Options) *Server {
	run := campaign.Run
	if opts.Runner != nil {
		run = opts.Runner
	}
	return newServer(opts, run)
}

func newServer(opts Options, run runner) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		run:    run,
		cache:  newCache(opts.CacheBytes),
		start:  time.Now(),
		log:    opts.Logger,
		obs:    newServerObs(),
		jobs:   make(map[string]*job),
		byHash: make(map[string]*job),
		jobc:   make(chan *job, opts.QueueDepth),
	}
	s.routes()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submit validates and enqueues a campaign, returning the job plus
// whether it was newly queued (false for cache hits and coalesced
// submissions). Refusals: errQueueFull (429), errDraining (503), or a
// validation error (400). tenant is the submitting client's identity
// (empty means the anonymous tenant), carried to the runner through the
// job context.
func (s *Server) submit(body []byte, tenant string) (j *job, queued bool, err error) {
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		return nil, false, err
	}
	if spec.Workers < 0 {
		return nil, false, fmt.Errorf("campaign: Workers must be >= 0, have %d", spec.Workers)
	}
	// A campaign's results are independent of its worker count, so
	// clamping cannot change what the client gets — it only stops one
	// request from oversubscribing the host.
	if maxw := runtime.GOMAXPROCS(0); spec.Workers > maxw {
		spec.Workers = maxw
	}
	hash, err := spec.CanonicalHash()
	if err != nil {
		return nil, false, err
	}
	points := spec.Points()
	reps := spec.Seeds
	if reps <= 0 {
		reps = 1
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}

	// Coalesce: an identical campaign already queued or running serves
	// this submission too.
	if active, ok := s.byHash[hash]; ok && !active.currentState().Terminal() {
		s.mu.Unlock()
		return active, false, nil
	}

	j = s.newJobLocked(hash, spec, tenant, len(points), len(points)*reps)

	// Content-addressed hit: the job is born finished with the cached
	// bytes — byte-identical to the run that produced them.
	if result, ok := s.cache.get(hash); ok {
		j.cached = true // no readers yet: the job is not registered
		s.registerLocked(j)
		s.mu.Unlock()
		j.finish(StateDone, result, false, nil)
		return j, false, nil
	}

	select {
	case s.jobc <- j:
	default:
		s.mu.Unlock()
		j.cancel(nil)
		return nil, false, errQueueFull
	}
	s.registerLocked(j)
	s.byHash[hash] = j
	s.mu.Unlock()
	return j, true, nil
}

func (s *Server) newJobLocked(hash string, spec campaign.Spec, tenant string, points, repsTotal int) *job {
	s.nextID++
	if tenant == "" {
		tenant = "anonymous"
	}
	ctx, cancel := context.WithCancelCause(WithTenant(context.Background(), tenant))
	j := &job{
		id:        fmt.Sprintf("c%08d", s.nextID),
		hash:      hash,
		tenant:    tenant,
		points:    points,
		repsTotal: repsTotal,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		hub:       newHub(),
		state:     StateQueued,
		onFinish:  s.noteFinished,
	}
	spec.Progress = progressSink{j: j}
	// Failed replicates log their grid coordinates and seed under this
	// job's id (campaign.Spec.Logger is excluded from the canonical hash,
	// so attaching it cannot perturb cache identity).
	spec.Logger = s.log.With("job", j.id)
	j.spec = spec
	return j
}

// registerLocked records the job and enforces finished-job retention.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	for len(s.jobs) > s.opts.MaxJobs && len(s.finished) > 0 {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
	}
}

// lookup returns the job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// noteFinished retires a job from the coalescing index into the
// retention queue; job.finish calls it exactly once per job, with no
// locks held. Exactly-once also makes it the one sound place to count
// terminal transitions and observe run durations.
func (s *Server) noteFinished(j *job) {
	snap := j.snapshot()
	s.obs.jobsFinished.With(string(snap.State)).Inc()
	ran := !snap.Started.IsZero() && !snap.Finished.IsZero()
	if ran {
		s.obs.runDuration.Observe(snap.Finished.Sub(snap.Started).Seconds())
	}
	errText := ""
	if snap.Err != nil {
		errText = snap.Err.Error()
	}
	s.log.Info("job finished",
		"job", j.id, "tenant", j.tenant, "state", snap.State, "cached", snap.Cached,
		"aborted", snap.Aborted, "reps_done", snap.RepsDone,
		"reps_total", snap.RepsTotal, "error", errText)

	s.mu.Lock()
	defer s.mu.Unlock()
	if ran {
		// EWMA over recent run durations, feeding the estimated-wait hint
		// in 429 bodies. α=0.3: responsive to workload shifts, stable
		// against one outlier.
		const alpha = 0.3
		run := snap.Finished.Sub(snap.Started).Seconds()
		if s.avgRunSeconds == 0 {
			s.avgRunSeconds = run
		} else {
			s.avgRunSeconds = alpha*run + (1-alpha)*s.avgRunSeconds
		}
	}
	if s.byHash[j.hash] == j {
		delete(s.byHash, j.hash)
	}
	s.finished = append(s.finished, j.id)
}

// estimatedWait predicts how long a submission refused now would have
// waited before starting: the queued jobs ahead of it, paced by the
// recent average job duration spread over the worker pool. Before any
// job has finished the RetryAfter hint is the best available answer.
func (s *Server) estimatedWait(st Stats) float64 {
	s.mu.Lock()
	avg := s.avgRunSeconds
	s.mu.Unlock()
	if avg == 0 {
		return s.opts.RetryAfter.Seconds()
	}
	return float64(st.QueueDepth+1) * avg / float64(st.Workers)
}

// Shutdown gracefully stops the server: submissions are refused
// immediately, queued jobs are canceled without starting, and running
// jobs drain until ctx expires — after which their contexts are
// canceled and they return partial-but-valid results. It returns once
// every worker has exited; completed results remain queryable.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: Shutdown called twice")
	}
	s.draining = true
	close(s.jobc)
	var queued []*job
	for _, j := range s.jobs {
		if j.currentState() == StateQueued {
			queued = append(queued, j)
		}
	}
	s.mu.Unlock()

	// Queued jobs never start during a drain: cancel and finish them now
	// so their SSE clients get the terminal event immediately. A job a
	// worker concurrently began is already Running and is left to drain.
	cause := errors.New("serve: canceled by shutdown before starting")
	for _, j := range queued {
		j.cancel(cause)
		j.finish(StateCanceled, nil, false, cause)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		cause := errors.New("serve: drain deadline exceeded, canceling running jobs")
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.currentState().Terminal() {
				j.cancel(cause)
			}
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}

// Stats is the /v1/stats document.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Draining      bool           `json:"draining"`
	Jobs          map[string]int `json:"jobs"`
	Cache         CacheStats     `json:"cache"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opts.Workers,
		QueueDepth:    len(s.jobc),
		QueueCapacity: s.opts.QueueDepth,
		Draining:      s.draining,
		Jobs:          make(map[string]int),
	}
	for _, j := range s.jobs {
		st.Jobs[string(j.currentState())]++
	}
	s.mu.Unlock()
	st.Cache = s.cache.stats()
	return st
}

// renderReport serialises a report to the canonical result bytes: the
// campaign NDJSON table. One serialization pathway feeds clients, the
// cache, and the CLI exports alike.
func renderReport(r *campaign.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
