package topology

import (
	"testing"
	"testing/quick"

	"ftnoc/internal/flit"
)

func TestPortStringAndValid(t *testing.T) {
	want := map[Port]string{Local: "L", North: "N", East: "E", South: "S", West: "W"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
		if !p.Valid() {
			t.Errorf("%v reported invalid", p)
		}
	}
	if NumPorts.Valid() {
		t.Error("NumPorts reported valid")
	}
}

func TestPortOpposite(t *testing.T) {
	pairs := map[Port]Port{North: South, South: North, East: West, West: East}
	for a, b := range pairs {
		if a.Opposite() != b {
			t.Errorf("%v.Opposite() = %v, want %v", a, a.Opposite(), b)
		}
	}
}

func TestLocalOppositePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Local.Opposite() did not panic")
		}
	}()
	Local.Opposite()
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := New(Mesh, 8, 8)
	for n := 0; n < m.Nodes(); n++ {
		id := flit.NodeID(n)
		if got := m.IDOf(m.CoordOf(id)); got != id {
			t.Fatalf("round trip %d -> %d", id, got)
		}
	}
	if c := m.CoordOf(0); c.X != 0 || c.Y != 0 {
		t.Errorf("node 0 at %+v, want origin", c)
	}
	if c := m.CoordOf(63); c.X != 7 || c.Y != 7 {
		t.Errorf("node 63 at %+v, want (7,7)", c)
	}
	if c := m.CoordOf(9); c.X != 1 || c.Y != 1 {
		t.Errorf("node 9 at %+v, want (1,1)", c)
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := New(Mesh, 4, 4)
	// Interior node 5 = (1,1): all four neighbors.
	cases := []struct {
		dir  Port
		want flit.NodeID
	}{
		{North, 1}, {South, 9}, {East, 6}, {West, 4},
	}
	for _, c := range cases {
		got, ok := m.Neighbor(5, c.dir)
		if !ok || got != c.want {
			t.Errorf("Neighbor(5,%v) = %d,%v want %d", c.dir, got, ok, c.want)
		}
	}
	// Corner 0: no north, no west.
	if _, ok := m.Neighbor(0, North); ok {
		t.Error("corner has a north neighbor")
	}
	if _, ok := m.Neighbor(0, West); ok {
		t.Error("corner has a west neighbor")
	}
	// Local direction is never a neighbor.
	if _, ok := m.Neighbor(5, Local); ok {
		t.Error("Local reported as a link")
	}
}

func TestTorusWrap(t *testing.T) {
	tr := New(Torus, 4, 4)
	if got, ok := tr.Neighbor(0, North); !ok || got != 12 {
		t.Errorf("torus Neighbor(0,N) = %d,%v, want 12", got, ok)
	}
	if got, ok := tr.Neighbor(0, West); !ok || got != 3 {
		t.Errorf("torus Neighbor(0,W) = %d,%v, want 3", got, ok)
	}
	if got, ok := tr.Neighbor(15, South); !ok || got != 3 {
		t.Errorf("torus Neighbor(15,S) = %d,%v, want 3", got, ok)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, kind := range []Kind{Mesh, Torus} {
		topo := New(kind, 5, 3)
		for n := 0; n < topo.Nodes(); n++ {
			for _, d := range []Port{North, East, South, West} {
				nb, ok := topo.Neighbor(flit.NodeID(n), d)
				if !ok {
					continue
				}
				back, ok2 := topo.Neighbor(nb, d.Opposite())
				if !ok2 || back != flit.NodeID(n) {
					t.Fatalf("%v: Neighbor(%d,%v)=%d but reverse = %d,%v", kind, n, d, nb, back, ok2)
				}
			}
		}
	}
}

func TestLinkCount(t *testing.T) {
	// 4x4 mesh: 2*(3*4)*2 directed links = 48.
	if got := len(New(Mesh, 4, 4).Links()); got != 48 {
		t.Errorf("4x4 mesh has %d directed links, want 48", got)
	}
	// 4x4 torus: every node has 4 out-links = 64.
	if got := len(New(Torus, 4, 4).Links()); got != 64 {
		t.Errorf("4x4 torus has %d directed links, want 64", got)
	}
}

func TestFailLink(t *testing.T) {
	m := New(Mesh, 4, 4)
	if !m.LinkUp(5, East) {
		t.Fatal("healthy link reported down")
	}
	m.FailLink(5, East)
	if m.LinkUp(5, East) {
		t.Fatal("failed link reported up")
	}
	// Directed: the reverse direction is unaffected.
	if !m.LinkUp(6, West) {
		t.Fatal("reverse direction failed too")
	}
}

func TestFailNonexistentLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("failing a mesh-edge link did not panic")
		}
	}()
	New(Mesh, 4, 4).FailLink(0, North)
}

func TestHopDistance(t *testing.T) {
	m := New(Mesh, 8, 8)
	cases := []struct {
		a, b flit.NodeID
		want int
	}{
		{0, 0, 0}, {0, 7, 7}, {0, 63, 14}, {9, 10, 1}, {9, 18, 2},
	}
	for _, c := range cases {
		if got := m.HopDistance(c.a, c.b); got != c.want {
			t.Errorf("mesh HopDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	tr := New(Torus, 8, 8)
	if got := tr.HopDistance(0, 7); got != 1 {
		t.Errorf("torus HopDistance(0,7) = %d, want 1 (wrap)", got)
	}
	if got := tr.HopDistance(0, 63); got != 2 {
		t.Errorf("torus HopDistance(0,63) = %d, want 2 (wrap both dims)", got)
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		m := New(Mesh, 8, 8)
		x, y := flit.NodeID(a%64), flit.NodeID(b%64)
		return m.HopDistance(x, y) == m.HopDistance(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Mesh.String() != "mesh" || Torus.String() != "torus" {
		t.Error("Kind.String wrong")
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Mesh, 0, 4) },
		func() { New(Kind(9), 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad topology construction did not panic")
				}
			}()
			fn()
		}()
	}
}
