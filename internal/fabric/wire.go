package fabric

import (
	"encoding/json"

	"ftnoc/internal/campaign"
)

// RegisterRequest is the body a worker POSTs to the coordinator's
// PathWorkers endpoint, both to join the fleet and — repeated on every
// heartbeat — to prove it is still alive. Registration is an upsert
// keyed by Name, so a restarted worker reclaims its identity.
type RegisterRequest struct {
	// Name identifies the worker across restarts and heartbeats.
	Name string `json:"name"`
	// URL is the base URL where the worker's shard endpoint listens.
	URL string `json:"url"`
	// Slots is how many shards the worker executes concurrently.
	Slots int `json:"slots"`
}

// RegisterResponse tells the worker how often to heartbeat. Missing
// enough heartbeats (the coordinator's HeartbeatTTL) marks the worker
// dead: no new shards are dispatched to it, and its in-flight shards'
// failures re-dispatch elsewhere.
type RegisterResponse struct {
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

// WorkerInfo is one fleet member in the coordinator's GET PathWorkers
// listing — operator-facing state, not part of the dispatch protocol.
type WorkerInfo struct {
	Name        string  `json:"name"`
	URL         string  `json:"url"`
	Slots       int     `json:"slots"`
	Busy        int     `json:"busy"`
	Alive       bool    `json:"alive"`
	LastSeenAgo float64 `json:"last_seen_seconds_ago"`
	BreakerOpen bool    `json:"breaker_open,omitempty"`
}

// ShardRequest is the body the coordinator POSTs to a worker's
// PathShards endpoint: run the grid points [Lo, Hi) of Spec and stream
// the rows back. Spec travels in its ParseSpec wire form, which
// preserves everything that determines results (campaign.Spec.WireJSON).
type ShardRequest struct {
	// Job is the coordinator-side job id, for log correlation only.
	Job  string          `json:"job"`
	Spec json.RawMessage `json:"spec"`
	Lo   int             `json:"lo"`
	Hi   int             `json:"hi"`
}

// ShardLine is one NDJSON-framed line of a shard response stream:
// exactly one of the fields is set. Row lines arrive as points finish
// (completion order); the stream ends with either a Done or an Error
// line. A stream that ends without one was cut mid-shard — the
// coordinator re-dispatches whatever rows it did not receive.
type ShardLine struct {
	Row   *campaign.PointRow `json:"row,omitempty"`
	Done  *ShardDone         `json:"done,omitempty"`
	Error string             `json:"error,omitempty"`
}

// ShardDone is the stream's success trailer. Which rows arrived is the
// coordinator's own per-point record; the trailer carries only the
// simulator-side telemetry it aggregates into its metrics.
type ShardDone struct {
	// SimCycles is the total simulated network cycles the shard cost.
	SimCycles uint64 `json:"sim_cycles,omitempty"`
}
