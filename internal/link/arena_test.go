package link

import (
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// NewTransmitter carves every VC's shifter out of one arena: the
// allocation count must not depend on the VC count, and the windows must
// not overlap — filling one VC's shifter leaves its neighbours' intact.
func TestTransmitterArena(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	for _, vcs := range []int{1, 3, 8} {
		if n := testing.AllocsPerRun(20, func() { NewTransmitter(ch, vcs, 8, NACKWindow, &ev, ctr) }); n > 3 {
			t.Errorf("NewTransmitter(%d VCs) = %v allocations, want <= 3", vcs, n)
		}
	}

	tx := NewTransmitter(ch, 3, 8, NACKWindow, &ev, ctr)
	for vc := 0; vc < 3; vc++ {
		for _, f := range flitsOnVC(10+vc, vc, NACKWindow) {
			tx.Send(f, vc, 0)
		}
	}
	for vc := 0; vc < 3; vc++ {
		got := tx.Recall(vc)
		if len(got) != NACKWindow {
			t.Fatalf("VC %d recalled %d flits, want %d", vc, len(got), NACKWindow)
		}
		for i, f := range got {
			if int(f.PID) != 10+vc || int(f.Seq) != i {
				t.Fatalf("VC %d slot %d holds %v: a neighbour's window overlaps", vc, i, f)
			}
		}
	}
}

// What the send window says the transmitter holds must track a walk of
// the shifters through every way an entry can leave: expiry, a link-error
// NACK draining into the replay queue, and replay re-capturing.
func TestTransmitterHeldTracksRetained(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{1: 2}} // second traversal: double error
	h := newHarness(HBH, corr, 8, packet4())
	h.recycle = true
	sawReplay := false
	for i := 0; i < 30; i++ {
		h.k.Step()
		occ, _ := h.tx.ShifterOccupancy()
		if want := h.tx.Retained() - h.tx.PendingReplay(); occ != want {
			t.Fatalf("cycle %d: ShifterOccupancy %d, shifters hold %d", i, occ, want)
		}
		if msg := h.tx.AuditRetrans(h.k.Cycle()); msg != "" {
			t.Fatalf("cycle %d: %s", i, msg)
		}
		sawReplay = sawReplay || h.tx.HasReplay()
	}
	if !sawReplay {
		t.Fatal("the scripted double error never reached the replay queue")
	}
	if len(h.accepted) != 4 || h.tx.Retained() != 0 {
		t.Fatalf("accepted %d flits, %d retained; want 4 and nothing retained", len(h.accepted), h.tx.Retained())
	}
}

// AppendDrain is Drain without the scratch buffer: same flits, same
// order, buffer left empty, appended after what dst already held.
func TestRetransBufferAppendDrain(t *testing.T) {
	rb := NewRetransBuffer(NACKWindow)
	// Wrap the ring first so the drain crosses the seam.
	rb.Capture(flit.Flit{Seq: 9}, 0)
	rb.Expire(NACKWindow)
	for i := 0; i < NACKWindow; i++ {
		rb.Capture(flit.Flit{Seq: uint8(i)}, NACKWindow)
	}
	got := rb.AppendDrain([]flit.Flit{{Seq: 7}})
	if len(got) != 1+NACKWindow || got[0].Seq != 7 {
		t.Fatalf("AppendDrain = %v", got)
	}
	for i, f := range got[1:] {
		if int(f.Seq) != i {
			t.Fatalf("drained slot %d = seq %d, want %d", i, f.Seq, i)
		}
	}
	if !rb.Empty() || rb.AppendDrain(nil) != nil {
		t.Fatal("buffer not empty after AppendDrain")
	}
}
