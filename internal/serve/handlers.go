package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"ftnoc/internal/obs"
)

// maxBodyBytes bounds a submitted spec document; campaign grids are
// declarative, so even huge campaigns fit in a small body.
const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/campaigns", s.handleSubmit)
	handle("GET /v1/campaigns/{id}", s.handleStatus)
	handle("GET /v1/campaigns/{id}/events", s.handleEvents)
	handle("DELETE /v1/campaigns/{id}", s.handleCancel)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	if s.opts.Fabric != nil {
		s.mux.HandleFunc("/fabric/", s.instrument("/fabric/", s.opts.Fabric.ServeHTTP))
	}
}

// submitResponse is the POST /v1/campaigns reply envelope.
type submitResponse struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
	// Coalesced marks a submission served by an already-active
	// identical job (same canonical hash): the returned id is that
	// job's, and canceling it cancels every coalesced client's campaign.
	Coalesced bool `json:"coalesced,omitempty"`
	Points    int  `json:"points"`
	Reps      int  `json:"reps_total"`
}

// backpressureResponse is the 429 body: enough context — how deep the
// queue is, how long the wait is likely to be — for a retrying client
// (the fabric's backoff, or a human) to make an informed decision
// instead of blindly hammering the Retry-After interval.
type backpressureResponse struct {
	Error                string  `json:"error"`
	QueueDepth           int     `json:"queue_depth"`
	QueueCapacity        int     `json:"queue_capacity"`
	RetryAfterSeconds    int     `json:"retry_after_seconds"`
	EstimatedWaitSeconds float64 `json:"estimated_wait_seconds"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	j, queued, err := s.submit(body, r.Header.Get("X-Tenant"))
	switch {
	case errors.Is(err, errQueueFull):
		retry := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		st := s.Stats()
		writeJSON(w, http.StatusTooManyRequests, backpressureResponse{
			Error:                err.Error(),
			QueueDepth:           st.QueueDepth,
			QueueCapacity:        st.QueueCapacity,
			RetryAfterSeconds:    retry,
			EstimatedWaitSeconds: s.estimatedWait(st),
		})
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := j.snapshot()
	resp := submitResponse{
		ID: j.id, Hash: j.hash, State: snap.State, Cached: snap.Cached,
		Coalesced: !queued && !snap.Cached && !snap.State.Terminal(),
		Points:    j.points, Reps: j.repsTotal,
	}
	reqLog(r.Context()).Info("campaign submitted",
		"job", j.id, "tenant", j.tenant, "hash", j.hash, "queued", queued,
		"cached", snap.Cached, "coalesced", resp.Coalesced,
		"points", j.points, "reps_total", j.repsTotal)
	status := http.StatusAccepted
	if !queued {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// statusResponse is the GET /v1/campaigns/{id} reply: the job's
// lifecycle, progress, and — once finished — its result rows. Result is
// the cached/rendered NDJSON table split into rows; the raw bytes pass
// through json.RawMessage untouched, so cached and fresh responses stay
// byte-identical.
type statusResponse struct {
	ID        string            `json:"id"`
	Hash      string            `json:"hash"`
	State     State             `json:"state"`
	Cached    bool              `json:"cached"`
	Points    int               `json:"points"`
	RepsTotal int               `json:"reps_total"`
	RepsDone  int               `json:"reps_done"`
	Submitted string            `json:"submitted"`
	Started   string            `json:"started,omitempty"`
	Finished  string            `json:"finished,omitempty"`
	Aborted   bool              `json:"aborted,omitempty"`
	Error     string            `json:"error,omitempty"`
	Result    []json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such campaign %q", r.PathValue("id")))
		return
	}
	snap := j.snapshot()
	resp := statusResponse{
		ID: j.id, Hash: j.hash, State: snap.State, Cached: snap.Cached,
		Points: j.points, RepsTotal: snap.RepsTotal, RepsDone: snap.RepsDone,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		Aborted:   snap.Aborted,
	}
	if !snap.Started.IsZero() {
		resp.Started = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		resp.Finished = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	resp.Result = splitNDJSON(snap.Result)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such campaign %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, term := j.hub.subscribe()
	if ch == nil {
		writeSSE(w, flusher, *term)
		return
	}
	defer j.hub.unsubscribe(ch)
	s.obs.sseSubs.Inc()
	defer s.obs.sseSubs.Dec()

	// Opening snapshot, so a subscriber knows where the job stands
	// before the first live event arrives.
	snap := j.snapshot()
	writeSSE(w, flusher, sseEvent{
		name: "status",
		data: fmt.Appendf(nil, `{"state":%q,"reps_done":%d,"reps_total":%d}`,
			snap.State, snap.RepsDone, snap.RepsTotal),
	})
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// The job reached a terminal state; deliver the stored
				// terminal event and end the stream.
				if term := j.hub.terminalEvent(); term != nil {
					writeSSE(w, flusher, *term)
				}
				return
			}
			writeSSE(w, flusher, ev)
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such campaign %q", r.PathValue("id")))
		return
	}
	state := j.currentState()
	if state.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign %s already %s", j.id, state))
		return
	}
	cause := errors.New("serve: canceled by client")
	j.cancel(cause)
	// A queued job has no worker to observe the cancellation; finish it
	// here. A running one finishes via its campaign's abort path with
	// partial results.
	if j.currentState() == StateQueued {
		j.finish(StateCanceled, nil, false, cause)
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": string(j.currentState())})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// healthzResponse is the GET /healthz document: liveness plus the build
// identity (module version and VCS revision stamped by the go tool; both
// empty when the binary was built without VCS metadata, e.g. under
// plain `go test`).
type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version,omitempty"`
	Revision      string  `json:"revision,omitempty"`
	Modified      bool    `json:"modified,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	b := buildInfo()
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Version:       b.version,
		Revision:      b.revision,
		Modified:      b.modified,
	}
	if draining {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the Prometheus text exposition. The snapshot
// refresh means the state-derived families encode exactly the document
// a concurrent /v1/stats would return (modulo one snapshot's worth of
// time skew, not divergent accounting).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.obs.refresh(s.Stats())
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.obs.reg.WriteText(w)
	if s.opts.ExtraMetrics != nil {
		_ = s.opts.ExtraMetrics.WriteText(w)
	}
}

// splitNDJSON turns rendered result bytes (one JSON object per line)
// into raw rows for embedding in a JSON response.
func splitNDJSON(b []byte) []json.RawMessage {
	if len(b) == 0 {
		return nil
	}
	var rows []json.RawMessage
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		rows = append(rows, json.RawMessage(line))
	}
	return rows
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
