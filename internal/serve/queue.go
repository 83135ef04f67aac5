package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/trace"
)

// State is a job's lifecycle position. Queued and Running are active;
// the rest are terminal.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is one submitted campaign: its spec, its lifecycle, and its
// progress stream. Result bytes are the campaign's rendered NDJSON
// table — exactly what the cache stores, so cached and fresh responses
// are byte-identical.
type job struct {
	id        string
	hash      string
	tenant    string
	spec      campaign.Spec
	points    int
	repsTotal int
	submitted time.Time

	ctx    context.Context
	cancel context.CancelCauseFunc
	hub    *hub
	// onFinish runs exactly once, after the terminal transition, with no
	// job or server lock held (the server uses it to retire the job from
	// its active indexes).
	onFinish func(*job)

	repsDone atomic.Int64

	mu       sync.Mutex
	state    State
	cached   bool
	started  time.Time
	finished time.Time
	result   []byte
	aborted  bool
	err      error
}

// snapshot is a consistent copy of the job's mutable fields.
type snapshot struct {
	State               State
	Cached              bool
	Started, Finished   time.Time
	Result              []byte
	Aborted             bool
	Err                 error
	RepsDone, RepsTotal int
}

func (j *job) snapshot() snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return snapshot{
		State: j.state, Cached: j.cached,
		Started: j.started, Finished: j.finished,
		Result: j.result, Aborted: j.aborted, Err: j.err,
		RepsDone: int(j.repsDone.Load()), RepsTotal: j.repsTotal,
	}
}

func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setRunning transitions queued → running; it reports false if the job
// already reached a terminal state (canceled while queued).
func (j *job) setRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// finish moves the job to a terminal state exactly once and closes its
// progress stream with the guaranteed terminal event. Later calls are
// no-ops, so cancellation racing completion is safe.
func (j *job) finish(state State, result []byte, aborted bool, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.aborted = aborted
	j.err = err
	cached := j.cached
	j.mu.Unlock()

	j.cancel(nil) // release the context's resources in every path
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	j.hub.close(sseEvent{
		name: string(state),
		data: fmt.Appendf(nil,
			`{"state":%q,"reps_done":%d,"reps_total":%d,"aborted":%t,"cached":%t,"error":%q}`,
			state, j.repsDone.Load(), j.repsTotal, aborted, cached, errText),
	})
	if j.onFinish != nil {
		j.onFinish(j)
	}
}

// progressSink bridges the campaign engine's replicate spans onto the
// job's SSE hub: RepBegin becomes point-start and RepEnd point-done. The
// engine serialises emissions, so no extra locking is needed beyond the
// hub's own.
type progressSink struct{ j *job }

func (p progressSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.CampaignRepBegin:
		p.j.hub.publish(sseEvent{
			name: "point-start",
			data: fmt.Appendf(nil, `{"point":%d,"rep":%d}`, e.Aux, e.PID),
		})
	case trace.CampaignRepEnd:
		done := p.j.repsDone.Add(1)
		p.j.hub.publish(sseEvent{
			name: "point-done",
			data: fmt.Appendf(nil, `{"point":%d,"rep":%d,"cycles":%d,"reps_done":%d,"reps_total":%d}`,
				e.Aux, e.PID, e.Aux2, done, p.j.repsTotal),
		})
	}
}

// errQueueFull is the backpressure signal: the queue's bounded buffer is
// at capacity, and the submission was refused rather than accepted into
// unbounded memory. HTTP maps it to 429 with Retry-After.
var errQueueFull = errors.New("serve: job queue full")

// errDraining refuses submissions during graceful shutdown.
var errDraining = errors.New("serve: server is shutting down")

// worker drains the job channel until it closes. Jobs canceled while
// queued (client DELETE, or shutdown) are already terminal and skipped.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobc {
		s.runJob(j)
	}
}

// runJob executes one campaign and finishes the job. A report that ran
// to completion is rendered once and stored in the result cache; an
// aborted report (cancellation mid-run) is still rendered — the partial
// state is valid and returned to the client — but never cached.
func (s *Server) runJob(j *job) {
	if j.currentState().Terminal() {
		return // canceled while queued
	}
	if j.ctx.Err() != nil {
		j.finish(StateCanceled, nil, false, context.Cause(j.ctx))
		return
	}
	now := time.Now()
	if !j.setRunning(now) {
		return
	}
	wait := now.Sub(j.submitted)
	s.obs.queueWait.Observe(wait.Seconds())
	s.obs.workersBusy.Inc()
	s.log.Info("job started",
		"job", j.id, "points", j.points, "reps_total", j.repsTotal,
		"queue_wait_ms", float64(wait.Microseconds())/1000)
	report, err := s.run(j.ctx, j.spec)
	// The worker is free before the job turns terminal, so a scrape that
	// sees the terminal state never counts it busy.
	s.obs.workersBusy.Dec()
	if report != nil {
		s.recordKernelTelemetry(j, report)
	}
	switch {
	case err != nil:
		j.finish(StateFailed, nil, false, err)
	case report.Aborted:
		result, rerr := renderReport(report)
		if rerr != nil {
			j.finish(StateFailed, nil, true, rerr)
			return
		}
		j.finish(StateCanceled, result, true, context.Cause(j.ctx))
	default:
		result, rerr := renderReport(report)
		if rerr != nil {
			j.finish(StateFailed, nil, false, rerr)
			return
		}
		s.cache.put(j.hash, result)
		j.finish(StateDone, result, false, nil)
	}
}

// recordKernelTelemetry aggregates the report's scheduler counters into
// the /metrics families and the job log. The counters describe the
// simulator, not the simulated network — they stay out of the rendered
// (and cached) result tables, which must be byte-identical for equal
// spec hashes regardless of the kernel that produced them.
func (s *Server) recordKernelTelemetry(j *job, report *campaign.Report) {
	cycles, ks := report.KernelTotals()
	if ks.Ticked+ks.Skipped == 0 {
		return // nothing completed (canceled before the first replicate)
	}
	s.obs.simCycles.Add(float64(cycles))
	s.obs.simTicks.With("ticked").Add(float64(ks.Ticked))
	s.obs.simTicks.With("skipped").Add(float64(ks.Skipped))
	s.obs.simEvents.Add(float64(ks.Events))
	s.log.Info("job kernel telemetry",
		"job", j.id,
		"sim_cycles", cycles, "actor_ticks", ks.Ticked, "ticks_skipped", ks.Skipped,
		"events_dispatched", ks.Events)
}
