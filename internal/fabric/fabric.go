// Package fabric scales the campaign engine beyond one process: a
// coordinator daemon shards a campaign's expanded grid into point-ranges
// and dispatches them over HTTP to registered worker daemons, streaming
// partial result rows back and merging them online into the same Report
// the single-node engine produces.
//
// The design leans entirely on the determinism guarantees the engine
// already provides. Every (point, replicate) derives its seed from the
// base seed and its global grid coordinates alone (campaign.DeriveSeed),
// so a point simulates to identical rows on any worker, any number of
// times — which makes shards idempotent: a dead or timed-out worker's
// unfinished points are simply re-dispatched, and rows that arrive twice
// are equal by construction. The headline consequence is differential
// verifiability: a distributed run is row-for-row identical to a
// single-node run of the same spec, including after a worker is killed
// mid-campaign.
//
// Components:
//
//   - Worker: executes shards (campaign.RunRange) and streams each
//     point's row the moment it completes, NDJSON-framed, over the shard
//     request's response body.
//   - Coordinator: owns the worker registry (registration + heartbeats,
//     staleness-based death detection), the dispatch scheduler (fair
//     queueing across tenants with per-tenant token quotas, so one giant
//     sweep cannot starve interactive users), the failure machinery
//     (exponential backoff re-dispatch, per-worker circuit breakers), the
//     one row merge (first copy wins; a conflicting duplicate fails the
//     run), and the shard cache: a shard whose rows it already holds
//     under the shard's HashRange is replayed, not dispatched.
//
// The coordinator plugs into internal/serve as its Options.Runner, so
// the public /v1/campaigns API, bounded queue, result cache and SSE
// progress streaming are exactly the single-node daemon's.
package fabric

// Protocol paths. The coordinator serves PathWorkers; the worker serves
// PathShards.
const (
	// PathShards is the worker's shard-execution endpoint.
	PathShards = "/fabric/v1/shards"
	// PathWorkers is the coordinator's registration/heartbeat endpoint.
	PathWorkers = "/fabric/v1/workers"
)
