package link

import (
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// NewTransmitters carves every VC's shifter out of one arena: the
// allocation count must depend neither on the VC count nor on how many
// transmitters are built, and the windows must not overlap — filling one
// VC's shifter leaves its neighbours' intact. The channels are reused, so
// a credit wire wider than four VCs is widened once, before counting.
func TestTransmitterArena(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	chans := NewChannels(nil, &k, 64, false, &ev, ctr)
	for _, vcs := range []int{1, 3, 8} {
		if n := testing.AllocsPerRun(20, func() { NewTransmitter(ch, vcs, 8, NACKWindow, &ev, ctr) }); n > 3 {
			t.Errorf("NewTransmitter(%d VCs) = %v allocations, want <= 3", vcs, n)
		}
		for _, n := range []int{1, 7, 64} {
			allocs := testing.AllocsPerRun(20, func() {
				NewTransmitters(nil, n, func(i int) *Channel { return &chans[i] }, vcs, 8, NACKWindow, &ev, ctr)
			})
			if allocs > 3 {
				t.Errorf("NewTransmitters(nil, %d, %d VCs) = %v allocations, want <= 3", n, vcs, allocs)
			}
		}
	}

	// Neighbouring transmitters of one batch: fill every shifter with its
	// own flits, and each must give back exactly those.
	batch := NewTransmitters(nil, 3, func(i int) *Channel { return &chans[i] }, 3, 8, NACKWindow, &ev, ctr)
	for i := range batch {
		for vc := 0; vc < 3; vc++ {
			for _, f := range flitsOnVC(10*i+vc, vc, NACKWindow) {
				batch[i].Send(f, vc, 0)
			}
		}
	}
	for i := range batch {
		for vc := 0; vc < 3; vc++ {
			for s, f := range batch[i].Recall(nil, vc) {
				if int(f.PID) != 10*i+vc || int(f.Seq) != s {
					t.Fatalf("transmitter %d VC %d slot %d holds %v: a neighbour's window overlaps", i, vc, s, f)
				}
			}
		}
	}

	tx := NewTransmitter(ch, 3, 8, NACKWindow, &ev, ctr)
	for vc := 0; vc < 3; vc++ {
		for _, f := range flitsOnVC(10+vc, vc, NACKWindow) {
			tx.Send(f, vc, 0)
		}
	}
	for vc := 0; vc < 3; vc++ {
		got := tx.Recall(nil, vc)
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

// NewChannels gives every flit wire its first ring from one arena and
// NewReceivers every drop window from another: with each of three
// neighbouring channels holding a full first ring and each receiver a
// drop window open on every VC, each holds exactly its own. A push past
// the first ring moves that wire to fresh storage, not into the next
// wire's window.
func TestChannelAndReceiverArenas(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	chans := NewChannels(nil, &k, 3, false, &ev, ctr)
	chanOf := func(i int) *Channel { return &chans[i] }
	rxs := NewReceivers(nil, 3, chanOf, 3, HBH, &ev, ctr)
	for i := range chans {
		for s := 0; s < 4; s++ {
			chans[i].Send(flit.Flit{PID: flit.PacketID(10*i + s), Type: flit.Body})
		}
		for vc := 0; vc < 3; vc++ {
			rxs[i].ForceDrop(vc, uint64(100*i+vc), NACKMisroute, 0, 0)
		}
	}
	chans[1].Send(flit.Flit{PID: 14, Type: flit.Body}) // outgrows its first ring
	k.Step()
	for i := range chans {
		n := 4
		if i == 1 {
			n = 5
		}
		for s := 0; s < n; s++ {
			f, ok := chans[i].Recv()
			if !ok || f.PID != flit.PacketID(10*i+s) {
				t.Fatalf("channel %d slot %d: got %v (ok %v), want pid %d: a neighbour's ring overlaps", i, s, f, ok, 10*i+s)
			}
		}
		for vc, until := range rxs[i].dropUntil {
			if until != uint64(100*i+vc+dropWindow) {
				t.Fatalf("receiver %d VC %d drops until %d, want %d: a neighbour's window overlaps", i, vc, until, 100*i+vc+dropWindow)
			}
		}
	}

	// A credit wire wider than the inline one is the channel's own.
	wide := NewChannels(nil, &k, 3, false, &ev, ctr)
	txs := NewTransmitters(nil, 3, func(i int) *Channel { return &wide[i] }, 6, 8, NACKWindow, &ev, ctr)
	for i := range wide {
		for vc := 0; vc < 6; vc++ {
			for n := 0; n < i+vc; n++ {
				wide[i].SendCredit(uint8(vc))
			}
		}
	}
	k.Step()
	for i := range txs {
		for vc := 0; vc < 6; vc++ {
			if got := txs[i].Credits(vc); got != 8+i+vc {
				t.Fatalf("transmitter %d VC %d has %d credits, want %d: a neighbour's credit window overlaps", i, vc, got, 8+i+vc)
			}
		}
	}
}
