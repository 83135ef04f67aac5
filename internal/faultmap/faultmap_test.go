package faultmap

import (
	"bytes"
	"math/rand"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

func TestMarkAndQuery(t *testing.T) {
	m := New(16)
	if m.Version() != 0 || m.DeadLinks() != 0 || m.DeadRouters() != 0 {
		t.Fatal("fresh map not empty")
	}
	if !m.MarkLinkDead(3, topology.East) {
		t.Fatal("first mark reported nothing learned")
	}
	if m.MarkLinkDead(3, topology.East) {
		t.Fatal("repeat mark reported something learned")
	}
	if !m.LinkDead(3, topology.East) || m.LinkDead(3, topology.West) || m.LinkDead(4, topology.East) {
		t.Fatal("LinkDead wrong")
	}
	if !m.MarkRouterDead(7) || m.MarkRouterDead(7) {
		t.Fatal("router mark idempotence wrong")
	}
	if !m.RouterDead(7) || m.RouterDead(8) {
		t.Fatal("RouterDead wrong")
	}
	if m.DeadLinks() != 1 || m.DeadRouters() != 1 {
		t.Fatalf("counts: %d links, %d routers", m.DeadLinks(), m.DeadRouters())
	}
	if m.Version() != 2 {
		t.Fatalf("version %d, want 2", m.Version())
	}
	if m.LinkDead(3, topology.Local) {
		t.Fatal("Local can never be a dead link")
	}
}

func TestMergeFrom(t *testing.T) {
	a, b := New(8), New(8)
	a.MarkLinkDead(1, topology.North)
	b.MarkLinkDead(1, topology.North)
	b.MarkLinkDead(2, topology.South)
	b.MarkRouterDead(5)
	if !a.MergeFrom(b) {
		t.Fatal("merge learned nothing")
	}
	if a.MergeFrom(b) {
		t.Fatal("second merge learned something")
	}
	if !a.LinkDead(2, topology.South) || !a.RouterDead(5) {
		t.Fatal("merge dropped faults")
	}
	if a.DeadLinks() != 2 || a.DeadRouters() != 1 {
		t.Fatalf("counts after merge: %d links, %d routers", a.DeadLinks(), a.DeadRouters())
	}
	if !a.Equal(b) {
		t.Fatal("maps with identical faults not Equal")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(64)
		m := New(nodes)
		for i := 0; i < rng.Intn(20); i++ {
			m.MarkLinkDead(flit.NodeID(rng.Intn(nodes)), topology.Port(1+rng.Intn(4)))
		}
		for i := 0; i < rng.Intn(5); i++ {
			m.MarkRouterDead(flit.NodeID(rng.Intn(nodes)))
		}
		enc := m.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !got.Equal(m) || got.Version() != m.Version() ||
			got.DeadLinks() != m.DeadLinks() || got.DeadRouters() != m.DeadRouters() {
			t.Fatalf("trial %d: round trip changed the map", trial)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("trial %d: re-encoding not canonical", trial)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	m := New(4)
	m.MarkLinkDead(1, topology.East)
	m.MarkRouterDead(2)
	good := m.Encode()
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      {0x00, 0x00, 1, 0, 0, 0},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0),
		"zero nodes":     {magic0, magic1, 0, 0, 0, 0},
		"huge nodes":     {magic0, magic1, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0},
		"node overflow":  {magic0, magic1, 2, 0, 1, 5, 0x1, 0},
		"zero mask":      {magic0, magic1, 2, 0, 1, 0, 0x0, 0},
		"oversized mask": {magic0, magic1, 2, 0, 1, 0, 0x10, 0},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("good encoding rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(4)
	m.MarkLinkDead(0, topology.East)
	c := m.Clone()
	c.MarkLinkDead(1, topology.West)
	if m.LinkDead(1, topology.West) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.LinkDead(0, topology.East) {
		t.Fatal("clone lost original faults")
	}
}

// NewMaps carves every map's bitmaps from shared arenas: marks made in
// one map stay out of its neighbours'.
func TestNewMapsIsolated(t *testing.T) {
	ms := NewMaps(nil, 3, 16)
	for i := range ms {
		ms[i].MarkLinkDead(flit.NodeID(i), topology.East)
		ms[i].MarkRouterDead(flit.NodeID(8 + i))
	}
	for i := range ms {
		for j := 0; j < 3; j++ {
			if got := ms[i].LinkDead(flit.NodeID(j), topology.East); got != (i == j) {
				t.Fatalf("map %d: link %dE dead = %v", i, j, got)
			}
			if got := ms[i].RouterDead(flit.NodeID(8 + j)); got != (i == j) {
				t.Fatalf("map %d: router %d dead = %v", i, 8+j, got)
			}
		}
		if ms[i].DeadLinks() != 1 || ms[i].DeadRouters() != 1 {
			t.Fatalf("map %d: %d dead links, %d dead routers", i, ms[i].DeadLinks(), ms[i].DeadRouters())
		}
	}
}
