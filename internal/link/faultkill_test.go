package link

import (
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// killHarness is a bare channel + transmitter pair for exercising the
// hard-fault destruction primitives outside a full network.
type killHarness struct {
	k   sim.Kernel
	ev  stats.Events
	ctr *fault.Counters
	ch  *Channel
	tx  *Transmitter
}

func newKillHarness() *killHarness {
	h := &killHarness{ctr: fault.NewCounters()}
	h.ch = NewChannel(&h.k, nil, false, &h.ev, h.ctr)
	h.tx = NewTransmitter(h.ch, 3, 8, NACKWindow, &h.ev, h.ctr)
	return h
}

// flitsOnVC builds one packet's flits riding the given VC.
func flitsOnVC(pid, vc, size int) []flit.Flit {
	fs := flit.Packet{ID: flit.PacketID(pid), Src: 0, Dst: 5, Size: size}.Flits()
	for i := range fs {
		fs[i].VC = uint8(vc)
	}
	return fs
}

// TestChannelDestroyData pins the wire-destruction primitive's credit
// law: destroying an in-flight data flit must push exactly one credit
// back toward the transmitter on that flit's VC, per-VC selection must
// leave other VCs' traffic untouched, and vc<0 must clear the wire.
func TestChannelDestroyData(t *testing.T) {
	h := newKillHarness()
	for _, f := range flitsOnVC(1, 0, 3) {
		h.ch.Send(f)
	}
	for _, f := range flitsOnVC(2, 1, 2) {
		h.ch.Send(f)
	}
	if h.ch.flits.InFlight() != 5 {
		t.Fatalf("InFlight = %d, want 5", h.ch.flits.InFlight())
	}
	if h.ch.InFlightData(0) != 3 || h.ch.InFlightData(1) != 2 {
		t.Fatalf("InFlightData = %d,%d want 3,2", h.ch.InFlightData(0), h.ch.InFlightData(1))
	}

	var seen []flit.Flit
	if n := h.ch.DestroyData(0, func(f flit.Flit) { seen = append(seen, f) }); n != 3 {
		t.Fatalf("DestroyData(0) = %d, want 3", n)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d flits, want 3", len(seen))
	}
	for _, f := range seen {
		if f.VC != 0 || f.PID != 1 {
			t.Fatalf("observer saw foreign flit %+v", f)
		}
	}
	// Credit conservation: one credit per destroyed data flit, on its VC.
	if h.ch.InFlightCredits(0) != 3 || h.ch.InFlightCredits(1) != 0 {
		t.Fatalf("InFlightCredits = %d,%d want 3,0",
			h.ch.InFlightCredits(0), h.ch.InFlightCredits(1))
	}
	// The other VC's worm is untouched.
	if h.ch.InFlightData(1) != 2 {
		t.Fatalf("VC1 lost flits: InFlightData(1) = %d, want 2", h.ch.InFlightData(1))
	}
	count := 0
	h.ch.EachDataFlit(func(f flit.Flit) {
		count++
		if f.VC != 1 {
			t.Fatalf("surviving flit on VC %d, want 1", f.VC)
		}
	})
	if count != 2 {
		t.Fatalf("EachDataFlit visited %d, want 2", count)
	}

	// Whole-channel destruction clears the remaining traffic.
	if n := h.ch.DestroyData(-1, nil); n != 2 {
		t.Fatalf("DestroyData(-1) = %d, want 2", n)
	}
	if h.ch.flits.InFlight() != 0 {
		t.Fatalf("InFlight = %d after full destruction, want 0", h.ch.flits.InFlight())
	}
}

// TestChannelDropNACKs kills pending backward handshakes: a dead
// channel's transmitter must never see a NACK, even one already
// visible on the wire.
func TestChannelDropNACKs(t *testing.T) {
	h := newKillHarness()
	drain := sim.ActorFunc(func(uint64) {})
	h.k.Register(drain)
	h.ch.SendNACK(0, NACKLinkError)
	h.k.Run(NACKLatency + 1)        // let it reach the visible slot
	h.ch.SendNACK(1, NACKLinkError) // and stage another, still in flight
	h.ch.DropNACKs()
	if ns := recvNACKs(h.ch); len(ns) != 0 {
		t.Fatalf("recvNACKs returned %v after DropNACKs", ns)
	}
}

// TestTransmitterAbandon pins the retransmission-state kill paths: per-VC
// abandonment drains exactly that VC's shifter without crediting
// anything, and AbandonAll leaves the transmitter retaining nothing.
func TestTransmitterAbandon(t *testing.T) {
	h := newKillHarness()
	for _, f := range flitsOnVC(1, 0, 3) {
		h.tx.Send(f, 0, 0)
	}
	for _, f := range flitsOnVC(2, 1, 2) {
		h.tx.Send(f, 1, 0)
	}
	if occ, _ := h.tx.ShifterOccupancy(); occ != 5 || h.tx.Retained() != 5 {
		t.Fatalf("ShifterOccupancy = %d (%d retained), want 5", occ, h.tx.Retained())
	}
	if h.tx.Channel() != h.ch {
		t.Fatal("Channel() does not return the wired channel")
	}

	credits0 := h.tx.Credits(0)
	var seen []flit.Flit
	h.tx.AbandonVC(0, func(f flit.Flit) { seen = append(seen, f) })
	if len(seen) != 3 {
		t.Fatalf("AbandonVC(0) observed %d flits, want 3", len(seen))
	}
	if occ, _ := h.tx.ShifterOccupancy(); occ != 2 {
		t.Fatalf("ShifterOccupancy = %d after AbandonVC(0), want 2", occ)
	}
	// Shifter copies hold no credits: abandoning must not mint any.
	if h.tx.Credits(0) != credits0 {
		t.Fatalf("AbandonVC changed VC0 credits %d -> %d", credits0, h.tx.Credits(0))
	}

	retained := 0
	h.tx.EachRetained(func(flit.Flit) { retained++ })
	if retained != 2 {
		t.Fatalf("EachRetained visited %d, want 2", retained)
	}

	h.tx.AbandonAll(nil)
	if occ, _ := h.tx.ShifterOccupancy(); occ != 0 || h.tx.Retained() != 0 {
		t.Fatalf("ShifterOccupancy = %d (%d retained) after AbandonAll, want 0 and nothing retained", occ, h.tx.Retained())
	}
	if n := h.tx.PendingReplay(); n != 0 {
		t.Fatalf("PendingReplay = %d after AbandonAll, want 0", n)
	}
	retained = 0
	h.tx.EachRetained(func(flit.Flit) { retained++ })
	if retained != 0 {
		t.Fatalf("EachRetained visited %d after AbandonAll, want 0", retained)
	}
}
