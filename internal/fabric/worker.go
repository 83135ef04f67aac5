package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/obs"
)

// WorkerOptions configures a shard-executing worker daemon.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (default: required
	// only for registration; the shard endpoint works unnamed).
	Name string
	// Coordinator is the coordinator's base URL, where the worker
	// registers and heartbeats (RegisterLoop).
	Coordinator string
	// Slots is the concurrent-shard capacity advertised at registration
	// (default 1). The worker does not enforce it; the coordinator's
	// dispatcher respects it.
	Slots int
	// SimWorkers overrides Spec.Workers for shard simulation (default 0,
	// meaning GOMAXPROCS). Results are scheduling-independent, so this
	// never changes rows — only how hard the worker drives its cores.
	SimWorkers int
	// Logger receives shard lifecycle records. Nil discards.
	Logger *slog.Logger
}

// Worker executes shards. It is an http.Handler factory (Handler serves
// POST PathShards) plus the registration/heartbeat loop that keeps the
// coordinator's liveness view current.
type Worker struct {
	opts WorkerOptions
	log  *slog.Logger
	reg  *obs.Registry

	simCycles    atomic.Uint64
	shards       *obs.CounterVec // result: simulated | error
	rowsStreamed *obs.Counter
	active       *obs.Gauge
}

// NewWorker builds a worker from opts.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	w := &Worker{
		opts: opts,
		log:  opts.Logger,
		reg:  reg,
		shards: reg.CounterVec("nocd_fabric_worker_shards_total",
			"Shards executed, by result: simulated or error.", "result"),
		rowsStreamed: reg.Counter("nocd_fabric_worker_rows_streamed_total",
			"Point rows streamed back to the coordinator."),
		active: reg.Gauge("nocd_fabric_worker_active_shards",
			"Shards currently executing."),
	}
	reg.CounterFunc("nocd_fabric_worker_sim_cycles_total",
		"Simulated network cycles across all shards.",
		func() float64 { return float64(w.simCycles.Load()) })
	return w
}

// Metrics is the worker's nocd_fabric_worker_* registry, for mounting on
// the daemon's /metrics via serve.Options.ExtraMetrics.
func (w *Worker) Metrics() *obs.Registry { return w.reg }

// SimCycles reports the total simulated network cycles this worker has
// executed. The shard-cache replay test pins its claim on this counter:
// a fully cache-served rerun must leave it unchanged.
func (w *Worker) SimCycles() uint64 { return w.simCycles.Load() }

// Handler serves the worker's fabric surface: POST PathShards.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathShards, w.handleShard)
	return mux
}

// handleShard executes one shard and streams its rows back NDJSON-framed.
// Protocol errors before the stream opens (bad body, bad spec) are plain
// HTTP errors; once rows are flowing, failures travel as an Error line.
func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("bad shard request: %v", err), http.StatusBadRequest)
		return
	}
	spec, err := campaign.ParseSpec(req.Spec)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.active.Inc()
	defer w.active.Dec()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	writeLine := func(line ShardLine) {
		_ = enc.Encode(line) // Encode appends the NDJSON newline
		if flusher != nil {
			flusher.Flush()
		}
	}
	log := w.log.With("job", req.Job, "lo", req.Lo, "hi", req.Hi)

	spec.Workers = w.opts.SimWorkers
	streamed := 0
	report, err := campaign.RunRange(r.Context(), spec, req.Lo, req.Hi, func(row campaign.PointRow) {
		streamed++
		writeLine(ShardLine{Row: &row})
	})
	w.rowsStreamed.Add(float64(streamed))
	if err != nil {
		writeLine(ShardLine{Error: err.Error()})
		w.shards.With("error").Inc()
		log.Warn("shard failed", "err", err)
		return
	}
	cycles, _ := report.KernelTotals()
	w.simCycles.Add(cycles)
	writeLine(ShardLine{Done: &ShardDone{SimCycles: cycles}})
	w.shards.With("simulated").Inc()
	log.Debug("shard simulated", "rows", streamed, "sim_cycles", cycles)
}

// RegisterLoop announces the worker to the coordinator and keeps
// heartbeating at the interval the coordinator prescribes until ctx is
// canceled. selfURL is the base URL where this worker's Handler is
// reachable. Transient failures retry at a short fixed interval — a
// worker that cannot reach its coordinator is useless but not broken.
func (w *Worker) RegisterLoop(ctx context.Context, selfURL string) {
	interval := time.Second
	registered := false
	for {
		resp, err := w.register(ctx, selfURL)
		switch {
		case err != nil:
			if registered {
				w.log.Warn("heartbeat failed", "coordinator", w.opts.Coordinator, "err", err)
			}
			registered = false
			interval = time.Second
		default:
			if !registered {
				w.log.Info("registered with coordinator",
					"coordinator", w.opts.Coordinator, "name", w.opts.Name,
					"heartbeat_seconds", resp.HeartbeatSeconds)
			}
			registered = true
			if resp.HeartbeatSeconds > 0 {
				interval = time.Duration(resp.HeartbeatSeconds * float64(time.Second))
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

func (w *Worker) register(ctx context.Context, selfURL string) (RegisterResponse, error) {
	body, err := json.Marshal(RegisterRequest{Name: w.opts.Name, URL: selfURL, Slots: w.opts.Slots})
	if err != nil {
		return RegisterResponse{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+PathWorkers, bytes.NewReader(body))
	if err != nil {
		return RegisterResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return RegisterResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return RegisterResponse{}, fmt.Errorf("register: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return RegisterResponse{}, err
	}
	return rr, nil
}
