package faultmap

import (
	"bytes"
	"testing"

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

// TestEncodeBytes pins the wire form byte for byte: magic, uvarint
// node count (two bytes for 200) and version, then the dead-link table
// as delta-coded (node, mask) pairs and the dead routers as delta-coded
// ids. AppendEncode appends to its argument.
func TestEncodeBytes(t *testing.T) {
	m := New(200)
	m.MarkLinkDead(3, topology.East)
	m.MarkLinkDead(3, topology.West)
	m.MarkLinkDead(150, topology.North)
	m.MarkRouterDead(7)
	m.MarkRouterDead(160)
	want := []byte{
		0xAA,           // caller's prefix
		magic0, magic1, // magic
		0xC8, 0x01, // 200 nodes
		0x05,       // version
		0x02,       // two nodes with dead links:
		0x03, 0x0A, // node 3, E|W
		0x93, 0x01, 0x01, // node 3+147, N
		0x02,       // two dead routers:
		0x07,       // 7
		0x99, 0x01, // 7+153
	}
	if got := m.AppendEncode([]byte{0xAA}); !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got % x\nwant % x", got, want)
	}
}
