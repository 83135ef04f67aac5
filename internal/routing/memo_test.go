package routing

import (
	"slices"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// countingFunc counts the calls that reach the wrapped function.
type countingFunc struct {
	Func
	calls int
}

func (c *countingFunc) Route(cur, dst flit.NodeID) []topology.Port {
	c.calls++
	return c.Func.Route(cur, dst)
}

// TestMemoFlushLeavesNothingMemoised fills a memo over every pair, then
// flushes it: every byte must be back at "not computed" and no interned
// set may survive, or a rebuilt function would be answered from the old
// epoch.
func TestMemoFlushLeavesNothingMemoised(t *testing.T) {
	topo := topology.New(topology.Mesh, 4, 4)
	topo.FailLink(5, topology.East)
	m := NewMemo(nil, New(FaultAdaptive, topo), topo.Nodes())
	for cur := 0; cur < topo.Nodes(); cur++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			m.Route(flit.NodeID(cur), flit.NodeID(dst))
		}
	}
	if len(m.sets) == 0 || !slices.ContainsFunc(m.memo, func(s uint8) bool { return s != 0 }) {
		t.Fatal("memo holds nothing before the flush; the test flushes nothing")
	}
	m.Flush()
	for i, s := range m.memo {
		if s != 0 {
			t.Fatalf("memo byte %d = %d after flush, want 0", i, s)
		}
	}
	if len(m.sets) != 0 {
		t.Fatalf("memo kept %d interned sets after flush", len(m.sets))
	}
}

// TestMemoOutOfRangeFallsThrough: a destination outside the node space
// reaches the function on every call and is never memoised; an in-range
// one reaches it once.
func TestMemoOutOfRangeFallsThrough(t *testing.T) {
	topo := topology.New(topology.Mesh, 4, 4)
	c := &countingFunc{Func: New(XY, topo)}
	m := NewMemo(nil, c, topo.Nodes())
	for i := 0; i < 3; i++ {
		if got, want := m.Route(0, 16), c.Func.Route(0, 16); !slices.Equal(got, want) {
			t.Fatalf("Route(0, 16) = %v, want %v", got, want)
		}
	}
	if c.calls != 3 {
		t.Fatalf("out-of-range dst reached the function %d times in 3 calls, want 3", c.calls)
	}
	if slices.ContainsFunc(m.memo, func(s uint8) bool { return s != 0 }) {
		t.Fatal("an out-of-range destination was memoised")
	}
	for i := 0; i < 3; i++ {
		m.Route(0, 5)
	}
	if c.calls != 4 {
		t.Fatalf("in-range dst reached the function %d times in 3 calls, want 1", c.calls-3)
	}
}

// FuzzMemo holds Memo.Route to the function it wraps, element by element,
// over a drawn topology, algorithm and query sequence. Under up*/down* a
// query byte of 0xff instead ends an epoch the way the network's
// reconfiguration controller does: a link pair dies, the function
// rebuilds and the memo is flushed.
func FuzzMemo(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint8(0), []byte{0, 5, 3, 9, 0, 5, 11, 2})
	f.Add(uint8(1), uint8(0), uint8(0), uint8(1), []byte{1, 0, 0, 1, 1, 1})
	f.Add(uint8(0), uint8(6), uint8(5), uint8(4), []byte{0, 20, 0xff, 3, 0, 20, 7, 30, 0xff, 11, 7, 30})
	f.Add(uint8(1), uint8(2), uint8(0), uint8(4), []byte{0, 1, 0xff, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, kind, w, h, alg uint8, ops []byte) {
		k := topology.Mesh
		if kind%2 == 1 {
			k = topology.Torus
		}
		topo := topology.New(k, 2+int(w%7), 1+int(h%8))
		a := Algorithm(1 + alg%5)
		fn := New(a, topo)
		m := NewMemo(nil, fn, topo.Nodes())
		links := topo.Links()
		n := topo.Nodes()
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i] == 0xff && a == FaultAdaptive {
				if l := links[int(ops[i+1])%len(links)]; topo.LinkUp(l.From, l.Dir) {
					nbr, _ := topo.Neighbor(l.From, l.Dir)
					topo.FailLink(l.From, l.Dir)
					if topo.LinkUp(nbr, l.Dir.Opposite()) {
						topo.FailLink(nbr, l.Dir.Opposite())
					}
				}
				fn.(*FaultAdaptiveFunc).Rebuild()
				m.Flush()
				continue
			}
			span := n
			if a != FaultAdaptive {
				span += 2 // up*/down* tables only cover the node space
			}
			cur, dst := flit.NodeID(int(ops[i])%n), flit.NodeID(int(ops[i+1])%span)
			if got, want := m.Route(cur, dst), fn.Route(cur, dst); !slices.Equal(got, want) {
				t.Fatalf("%v %dx%d %v: Memo.Route(%d, %d) = %v, function says %v",
					k, topo.Width(), topo.Height(), a, cur, dst, got, want)
			}
		}
	})
}
