package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Handler serves the coordinator's fabric surface: worker registration
// and heartbeats, and the fleet listing. The daemon mounts it under
// /fabric/ via serve.Options.Fabric.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathWorkers, c.handleRegister)
	mux.HandleFunc("GET "+PathWorkers, c.handleWorkers)
	return mux
}

// handleRegister upserts a worker by name and refreshes its liveness.
// Registration and heartbeat are the same request: idempotent, cheap,
// and self-healing — a coordinator restart loses the fleet map, and the
// next round of heartbeats rebuilds it.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad register request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Name == "" || req.URL == "" {
		http.Error(w, "register: name and url are required", http.StatusBadRequest)
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	c.mu.Lock()
	ws := c.workers[req.Name]
	fresh := ws == nil
	if fresh {
		ws = &workerState{name: req.Name}
		c.workers[req.Name] = ws
	}
	ws.url = req.URL
	ws.slots = req.Slots
	ws.lastSeen = time.Now()
	c.mu.Unlock()
	c.broadcast()
	if fresh {
		c.log.Info("worker registered", "worker", req.Name, "url", req.URL, "slots", req.Slots)
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatSeconds: (c.opts.HeartbeatTTL / 3).Seconds(),
	})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.WorkerList())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
