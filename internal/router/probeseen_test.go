package router

import (
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/routing"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
)

// Regression test: probe-memory entries must age out even while the node
// sits in recovery mode. Before the prune was hoisted ahead of the
// recovery branch in deadlock(), a node that spent many windows recovering
// never pruned, and probeSeen grew without bound in long soak and daemon
// runs.
func TestProbeSeenPrunedDuringRecovery(t *testing.T) {
	var ev stats.Events
	topo := topology.New(topology.Mesh, 2, 2)
	r := New(Config{
		ID: 0, Topo: topo, Route: routing.New(routing.XY, topo),
		VCs: 2, BufDepth: 4, PipelineDepth: 1, RecoveryEnabled: true,
		Events: &ev, Counters: fault.NewCounters(),
	})
	r.inRecovery = true
	stale := probeMsg{Origin: flit.NodeID(3), OriginPort: topology.North, OriginVC: 1}
	r.rememberProbe(stale.key(), 1) // recorded long ago
	fresh := probeMsg{Origin: flit.NodeID(2), OriginPort: topology.East, OriginVC: 0}
	cycle := uint64(4 * probeSeenWindow) // a prune boundary
	r.rememberProbe(fresh.key(), cycle-2)
	r.deadlock(cycle)
	if r.probeAt(stale.key()) >= 0 {
		t.Fatal("stale probe-memory entry survived pruning during recovery")
	}
	if r.probeAt(fresh.key()) < 0 {
		t.Fatal("fresh probe-memory entry pruned early")
	}
	if !r.inRecovery {
		t.Fatal("pruning must not end recovery by itself")
	}
}
