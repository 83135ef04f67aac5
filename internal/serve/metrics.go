package serve

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"ftnoc/internal/obs"
)

// serverObs is the daemon's metrics surface: every family the /metrics
// endpoint exposes, all registered on one obs.Registry.
//
// Families come in two flavours. Event-driven ones (HTTP requests,
// job-completion counters, the wait/run histograms, the SSE gauge) are
// updated inline by the code path that observes the event — single
// atomics, safe and cheap whether or not anything ever scrapes.
// State-derived ones (queue depth, jobs by state, cache counters) are
// func-backed closures over the snapshot refreshed by refresh() — the
// same Server.Stats() document /v1/stats serves, taken once per scrape,
// so the two endpoints can never drift apart (see
// TestStatsAndMetricsAgree).
type serverObs struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec // method, route, status
	httpLatency  *obs.HistogramVec
	jobsFinished *obs.CounterVec // terminal state
	queueWait    *obs.Histogram
	runDuration  *obs.Histogram
	sseSubs      *obs.Gauge
	workersBusy  *obs.Gauge
	simCycles    *obs.Counter
	simTicks     *obs.CounterVec // ticked, skipped
	simEvents    *obs.Counter

	jobsByState map[State]*obs.Gauge

	mu sync.Mutex
	st Stats // latest snapshot; refreshed before every scrape
}

// jobStates enumerates every lifecycle state so the nocd_jobs family
// always exposes all five series, zeros included — dashboards should
// not see series flicker in and out of existence.
var jobStates = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// jobSeconds buckets job queue-wait and run durations: campaigns range
// from milliseconds (tiny grids, cache-adjacent) to minutes.
var jobSeconds = []float64{.005, .025, .1, .5, 1, 5, 15, 60, 300, 1800}

// httpSeconds buckets request latency: most requests are microseconds;
// SSE streams run as long as their campaigns.
var httpSeconds = []float64{.0005, .001, .005, .025, .1, .5, 1, 5, 30, 120}

func newServerObs() *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg: reg,
		httpRequests: reg.CounterVec("nocd_http_requests_total",
			"HTTP requests served, by method, route pattern and status code.",
			"method", "route", "status"),
		httpLatency: reg.HistogramVec("nocd_http_request_seconds",
			"HTTP request latency by route pattern.", httpSeconds, "route"),
		jobsFinished: reg.CounterVec("nocd_jobs_completed_total",
			"Jobs that reached a terminal state, by state (done, failed, canceled).",
			"state"),
		queueWait: reg.Histogram("nocd_job_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", jobSeconds),
		runDuration: reg.Histogram("nocd_job_run_seconds",
			"Campaign execution time, submission-to-terminal, for jobs that ran.", jobSeconds),
		sseSubs: reg.Gauge("nocd_sse_subscribers",
			"Live SSE progress subscriptions."),
		workersBusy: reg.Gauge("nocd_workers_busy",
			"Workers currently executing a campaign."),
		simCycles: reg.Counter("nocd_sim_cycles_total",
			"Simulated network cycles across every completed replicate."),
		simTicks: reg.CounterVec("nocd_sim_actor_ticks_total",
			"Scheduler-level actor ticks across completed replicates, by outcome: "+
				"ticked (executed) or skipped (elided relative to ticking every actor every cycle).",
			"outcome"),
		simEvents: reg.Counter("nocd_sim_events_dispatched_total",
			"Actor ticks the scheduler dispatched to actors that may sleep, across completed replicates."),
	}

	// State-derived families: closures over the per-scrape snapshot.
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return f(o.st)
		}
	}
	reg.GaugeFunc("nocd_uptime_seconds", "Seconds since the server started.",
		stat(func(s Stats) float64 { return s.UptimeSeconds }))
	reg.GaugeFunc("nocd_workers", "Size of the campaign worker pool.",
		stat(func(s Stats) float64 { return float64(s.Workers) }))
	reg.GaugeFunc("nocd_queue_depth", "Jobs accepted but not yet started.",
		stat(func(s Stats) float64 { return float64(s.QueueDepth) }))
	reg.GaugeFunc("nocd_queue_capacity", "Queue bound; at depth == capacity submissions get 429.",
		stat(func(s Stats) float64 { return float64(s.QueueCapacity) }))
	reg.GaugeFunc("nocd_draining", "1 while graceful shutdown is draining jobs, else 0.",
		stat(func(s Stats) float64 {
			if s.Draining {
				return 1
			}
			return 0
		}))
	jobs := reg.GaugeVec("nocd_jobs", "Retained jobs by lifecycle state.", "state")
	o.jobsByState = make(map[State]*obs.Gauge, len(jobStates))
	for _, state := range jobStates {
		o.jobsByState[state] = jobs.With(string(state))
	}

	reg.CounterFunc("nocd_cache_hits_total", "Result-cache hits (content-addressed by spec hash).",
		stat(func(s Stats) float64 { return float64(s.Cache.Hits) }))
	reg.CounterFunc("nocd_cache_misses_total", "Result-cache misses.",
		stat(func(s Stats) float64 { return float64(s.Cache.Misses) }))
	reg.CounterFunc("nocd_cache_evictions_total", "Result-cache LRU evictions.",
		stat(func(s Stats) float64 { return float64(s.Cache.Evictions) }))
	reg.GaugeFunc("nocd_cache_entries", "Cached result tables.",
		stat(func(s Stats) float64 { return float64(s.Cache.Entries) }))
	reg.GaugeFunc("nocd_cache_bytes", "Bytes held by the result cache.",
		stat(func(s Stats) float64 { return float64(s.Cache.Bytes) }))
	reg.GaugeFunc("nocd_cache_budget_bytes", "Result-cache byte budget.",
		stat(func(s Stats) float64 { return float64(s.Cache.Budget) }))

	// Runtime health, read live at scrape time.
	reg.GaugeFunc("nocd_goroutines", "Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("nocd_heap_alloc_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})

	version, revision, _ := buildInfo()
	reg.GaugeVec("nocd_build_info",
		"Constant 1, labelled with build metadata so fleet tooling can tell nodes apart.",
		"go_version", "revision", "version").
		With(runtime.Version(), revision, version).Set(1)

	return o
}

// refresh installs the snapshot the func-backed families will encode
// and mirrors the per-state job counts into the nocd_jobs gauges.
func (o *serverObs) refresh(st Stats) {
	o.mu.Lock()
	o.st = st
	o.mu.Unlock()
	for _, state := range jobStates {
		o.jobsByState[state].Set(float64(st.Jobs[string(state)]))
	}
}

// buildInfo extracts the module version and VCS revision stamped into
// the binary (empty strings under plain `go test`, which does not stamp
// VCS metadata).
func buildInfo() (version, revision string, modified bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", "", false
	}
	version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return version, revision, modified
}

// statusWriter captures the response status and size for metrics and
// request logs. It implements http.Flusher unconditionally, forwarding
// when the wrapped writer can flush — SSE streaming must survive the
// instrumentation wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqLogKey carries the request-scoped logger through the context.
type reqLogKey struct{}

func withReqLog(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, reqLogKey{}, l)
}

// reqLog returns the request-scoped logger installed by instrument
// (carrying the request id), falling back to a discard logger so
// handlers never nil-check.
func reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(reqLogKey{}).(*slog.Logger); ok {
		return l
	}
	return discardLog
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// instrument wraps a handler with the request-scoped observability
// envelope: a request id, a structured log record, and the HTTP count
// and latency series labelled with the route pattern (never the raw
// path — ids would explode the cardinality).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	// Scrapes, probes and fabric heartbeats arrive every few seconds
	// forever; keep them out of Info-level logs.
	level := slog.LevelInfo
	if route == "GET /metrics" || route == "GET /healthz" || route == "/fabric/" {
		level = slog.LevelDebug
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		log := s.log.With("req", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(withReqLog(r.Context(), log)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.obs.httpRequests.With(r.Method, route, strconv.Itoa(sw.status)).Inc()
		s.obs.httpLatency.With(route).Observe(elapsed.Seconds())
		log.Log(r.Context(), level, "http",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", sw.status, "bytes", sw.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1000)
	}
}
