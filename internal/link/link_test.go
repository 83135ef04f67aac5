package link

import (
	"testing"
	"testing/quick"

	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

func TestFIFOBasics(t *testing.T) {
	q := &NewFIFOs(nil, 1, 2)[0]
	if !q.Empty() || q.Full() || q.Cap() != 2 {
		t.Fatal("fresh FIFO state wrong")
	}
	q.Push(&flit.Flit{Seq: 1})
	q.Push(&flit.Flit{Seq: 2})
	if !q.Full() || q.Len() != 2 || q.Free() != 0 {
		t.Fatal("full FIFO state wrong")
	}
	if front := q.Front(); front == nil || front.Seq != 1 {
		t.Fatalf("Front = %v", front)
	}
	f, ok := q.Pop()
	if !ok || f.Seq != 1 || q.Len() != 1 {
		t.Fatalf("Pop = %v,%v len=%d", f, ok, q.Len())
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q := &NewFIFOs(nil, 1, 1)[0]
	q.Push(&flit.Flit{})
	q.Push(&flit.Flit{})
}

func TestRetransBufferCaptureExpireDrain(t *testing.T) {
	rb := NewRetransBuffer(NACKWindow)
	rb.Capture(flit.Flit{Seq: 0}, 10)
	rb.Capture(flit.Flit{Seq: 1}, 11)
	rb.Capture(flit.Flit{Seq: 2}, 12)
	if rb.Len() != 3 {
		t.Fatalf("Len = %d", rb.Len())
	}
	// At cycle 12 the flit sent at 10 is still NACKable.
	if n := rb.Expire(12); n != 0 {
		t.Fatalf("Expire(12) freed %d, want 0", n)
	}
	// At cycle 13 its NACK deadline has passed (NACKs are ingested before
	// Expire runs), so the slot frees.
	if n := rb.Expire(13); n != 1 {
		t.Fatalf("Expire(13) freed %d, want 1", n)
	}
	got := rb.AppendDrain(nil)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("AppendDrain = %v", got)
	}
	if !rb.Empty() {
		t.Fatal("not empty after drain")
	}
}

// Empty buffers must hand back nothing without allocating: Snapshot and
// AppendDrain sit on the per-cycle hot path (every NACK and every
// recovery step), and the empty case is by far the common one.
func TestRetransBufferEmptyReturnsNil(t *testing.T) {
	rb := NewRetransBuffer(NACKWindow)
	if got := rb.Snapshot(); got != nil {
		t.Fatalf("empty Snapshot = %v, want nil", got)
	}
	if got := rb.AppendDrain(nil); got != nil {
		t.Fatalf("empty AppendDrain = %v, want nil", got)
	}
	rb.Capture(flit.Flit{Seq: 7}, 5)
	if got := rb.Snapshot(); len(got) != 1 || got[0].Seq != 7 {
		t.Fatalf("Snapshot = %v", got)
	}
	buf := rb.AppendDrain(nil)
	if len(buf) != 1 || buf[0].Seq != 7 {
		t.Fatalf("AppendDrain = %v", buf)
	}
	// Drained-to-empty again: nothing comes back, and the caller's
	// capacity is reused rather than reallocated.
	if got := rb.AppendDrain(buf[:0]); len(got) != 0 {
		t.Fatalf("post-drain AppendDrain = %v, want empty", got)
	}
	if got := rb.Snapshot(); got != nil {
		t.Fatalf("post-drain Snapshot = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rb.Capture(flit.Flit{Seq: 1}, 5)
		if buf = rb.AppendDrain(buf[:0]); len(buf) != 1 {
			t.Fatal("drain lost the captured flit")
		}
	})
	if allocs != 0 {
		t.Fatalf("capture+drain cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestRetransBufferOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	rb := NewRetransBuffer(1)
	rb.Capture(flit.Flit{}, 0)
	rb.Capture(flit.Flit{}, 0)
}

// scriptedCorruptor corrupts the flits whose global send index appears in
// the plan (index -> number of bits to flip).
type scriptedCorruptor struct {
	n    int
	plan map[int]int
}

func (s *scriptedCorruptor) Corrupt(f *flit.Flit) fault.LinkOutcome {
	idx := s.n
	s.n++
	switch s.plan[idx] {
	case 1:
		f.Word = ecc.FlipDataBit(f.Word, 5)
		return fault.SingleFlip
	case 2:
		f.Word = ecc.FlipDataBit(ecc.FlipDataBit(f.Word, 5), 40)
		return fault.DoubleFlip
	default:
		return fault.NoError
	}
}

// harness wires a transmitter and receiver over one channel and runs a
// fixed flit script through it.
type harness struct {
	k        sim.Kernel
	ev       stats.Events
	ctr      *fault.Counters
	tx       *Transmitter
	rx       *Receiver
	toSend   []flit.Flit
	accepted []flit.Flit
	acceptAt []uint64
	// recycle returns each accepted flit's credit immediately (an
	// always-draining consumer); off by default so backpressure tests
	// can count resident flits.
	recycle bool
}

func newHarness(prot Protection, corr fault.Corruptor, cap int, packet []flit.Flit) *harness {
	h := &harness{ctr: fault.NewCounters(), toSend: packet}
	ch := NewChannel(&h.k, corr, false, &h.ev, h.ctr)
	h.tx = NewTransmitter(ch, 3, cap, NACKWindow, &h.ev, h.ctr)
	h.rx = NewReceiver(ch, 3, prot, &h.ev, h.ctr)
	h.k.Register(sim.ActorFunc(func(c uint64) {
		h.tx.BeginCycle(c)
		h.tx.ExpireShifters(c)
		if h.tx.TickReplay(c) {
			return
		}
		if len(h.toSend) > 0 && h.tx.Credits(0) > 0 {
			h.tx.Send(h.toSend[0], 0, c)
			h.toSend = h.toSend[1:]
		}
	}))
	h.k.Register(sim.ActorFunc(func(c uint64) {
		data, _ := h.rx.ReceiveAll(c)
		for _, f := range data {
			h.accepted = append(h.accepted, f)
			h.acceptAt = append(h.acceptAt, c)
			if h.recycle {
				h.rx.ReturnCredit(int(f.VC))
			}
		}
	}))
	return h
}

func packet4() []flit.Flit {
	return flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 4}.Flits()
}

// TestHBHFlitFlowFigure4 reproduces the flit-flow example of Fig. 4: the
// header flit is corrupted with a double error on its first traversal;
// the receiver drops it plus the two subsequent flits and the transmitter
// replays all three from the barrel shifter. The corrected header arrives
// exactly 3 cycles late.
func TestHBHFlitFlowFigure4(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{0: 2}} // first traversal: double error
	h := newHarness(HBH, corr, 8, packet4())
	h.k.Run(20)

	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	for i, f := range h.accepted {
		if int(f.Seq) != i {
			t.Fatalf("flit %d has seq %d: order broken", i, f.Seq)
		}
	}
	// Clean header would arrive at cycle 1; the replayed one lands at 4.
	if h.acceptAt[0] != 4 {
		t.Fatalf("header accepted at cycle %d, want 4 (3-cycle penalty)", h.acceptAt[0])
	}
	// Header payload must be the corrected original.
	hd := flit.DecodeHeader(h.accepted[0].Word)
	if hd.Dst != 5 || hd.Src != 0 {
		t.Fatalf("header corrupted after recovery: %+v", hd)
	}
	if h.ctr.DroppedFlits != 3 {
		t.Fatalf("dropped %d flits, want 3 (corrupt header + two in-flight)", h.ctr.DroppedFlits)
	}
	if h.ctr.Retransmissions != 3 {
		t.Fatalf("retransmitted %d flits, want 3", h.ctr.Retransmissions)
	}
	if h.ctr.NACKs != 1 {
		t.Fatalf("sent %d NACKs, want 1", h.ctr.NACKs)
	}
}

// A single-bit error must be corrected in place with no retransmission at
// all (the FEC half of the hybrid scheme).
func TestHBHSingleErrorCorrectedInPlace(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{1: 1}} // second flit: single flip
	h := newHarness(HBH, corr, 8, packet4())
	h.k.Run(12)

	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	if h.ctr.Retransmissions != 0 || h.ctr.NACKs != 0 {
		t.Fatalf("single error caused retransmission (%d) / NACK (%d)", h.ctr.Retransmissions, h.ctr.NACKs)
	}
	if h.accepted[1].Word != flit.PayloadWord(1, 1) {
		t.Fatal("payload not corrected")
	}
	if h.ev.ECCCorrections != 1 {
		t.Fatalf("ECCCorrections = %d, want 1", h.ev.ECCCorrections)
	}
	// No penalty: last flit arrives at cycle 4 (sent 0..3).
	if h.acceptAt[3] != 4 {
		t.Fatalf("tail accepted at %d, want 4", h.acceptAt[3])
	}
}

// Double errors on consecutive flits: each triggers its own NACK cycle
// and the stream still arrives intact and in order.
func TestHBHBackToBackErrors(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{0: 2, 4: 2}}
	h := newHarness(HBH, corr, 8, packet4())
	h.k.Run(40)
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	for i, f := range h.accepted {
		if int(f.Seq) != i {
			t.Fatalf("order broken at %d: %v", i, f)
		}
	}
	if h.ctr.NACKs != 2 {
		t.Fatalf("NACKs = %d, want 2", h.ctr.NACKs)
	}
}

// An error on the retransmitted flit itself must trigger a second
// recovery round and still converge.
func TestHBHErrorOnRetransmission(t *testing.T) {
	// Traversal 0: H1 double error. Traversals 3..5 are the replays of
	// H1,D2,D3; corrupt the replayed H1 too.
	corr := &scriptedCorruptor{plan: map[int]int{0: 2, 3: 2}}
	h := newHarness(HBH, corr, 8, packet4())
	h.k.Run(40)
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	for i, f := range h.accepted {
		if int(f.Seq) != i {
			t.Fatalf("order broken at %d: %v", i, f)
		}
	}
	if h.ctr.NACKs != 2 {
		t.Fatalf("NACKs = %d, want 2", h.ctr.NACKs)
	}
}

// E2E mode: data-flit corruption passes through uninspected; the flit is
// delivered corrupt (the destination, not the hop, must catch it).
func TestE2EDataCorruptionPassesThrough(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{1: 2}}
	h := newHarness(E2E, corr, 8, packet4())
	h.k.Run(12)
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	if _, _, out := ecc.Decode(h.accepted[1].Word, h.accepted[1].Check); out != ecc.Detected {
		t.Fatal("corrupted data flit was repaired at the hop in E2E mode")
	}
	if h.ctr.NACKs != 0 {
		t.Fatal("E2E hop issued a NACK for a data flit")
	}
}

// E2E mode still protects headers hop-by-hop: the hop decodes every
// header, so it corrects a single-bit error in place as HBH does. A NACK
// would replay the shifter's copy, which a crossbar upset upstream of
// the capture has flipped too, so the replay would be NACKed forever.
func TestE2EHeaderProtectedHopByHop(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{0: 1}}
	h := newHarness(E2E, corr, 8, packet4())
	h.k.Run(20)
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	hd := flit.DecodeHeader(h.accepted[0].Word)
	if hd.Dst != 5 {
		t.Fatalf("header still corrupt: %+v", hd)
	}
	if h.ctr.NACKs != 0 || h.ev.ECCCorrections != 1 {
		t.Fatalf("NACKs = %d, corrections = %d; want the header corrected in place", h.ctr.NACKs, h.ev.ECCCorrections)
	}
}

// FEC mode: data singles corrected at the hop; data doubles delivered
// corrupt; header doubles retransmitted.
func TestFECPolicies(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{1: 1, 2: 2}}
	h := newHarness(FEC, corr, 8, packet4())
	h.k.Run(16)
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	if h.accepted[1].Word != flit.PayloadWord(1, 1) {
		t.Fatal("FEC hop did not correct single error")
	}
	if _, _, out := ecc.Decode(h.accepted[2].Word, h.accepted[2].Check); out != ecc.Detected {
		t.Fatal("FEC hop repaired or dropped a double-error data flit")
	}
	if h.ctr.NACKs != 0 {
		t.Fatal("FEC hop NACKed a data flit")
	}
}

// Credit conservation: after any error/recovery episode, the transmitter's
// credit count equals capacity minus flits resident downstream.
func TestCreditConservationThroughRecovery(t *testing.T) {
	corr := &scriptedCorruptor{plan: map[int]int{0: 2, 5: 2}}
	h := newHarness(HBH, corr, 4, packet4())
	h.k.Run(40)
	// All 4 flits accepted and still in the downstream buffer (the
	// harness never returns credits on pop), so credits must be 0.
	if len(h.accepted) != 4 {
		t.Fatalf("accepted %d flits, want 4", len(h.accepted))
	}
	if got := h.tx.Credits(0); got != 0 {
		t.Fatalf("credits = %d, want 0 (4 flits resident, cap 4)", got)
	}
	// Returning credits restores the full count.
	for i := 0; i < 4; i++ {
		h.rx.ReturnCredit(0)
	}
	h.k.Run(2)
	h.tx.BeginCycle(h.k.Cycle())
	h.tx.ExpireShifters(h.k.Cycle())
	if got := h.tx.Credits(0); got != 4 {
		t.Fatalf("credits = %d after returns, want 4", got)
	}
}

func TestTransmitterPanicsWithoutCredit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send without credit did not panic")
		}
	}()
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	tx := NewTransmitter(ch, 1, 1, NACKWindow, &ev, ctr)
	tx.Send(flit.Flit{Type: flit.Head}, 0, 0)
	tx.Send(flit.Flit{Type: flit.Body}, 0, 1)
}

func TestControlFlitBypassesCredits(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	tx := NewTransmitter(ch, 1, 1, NACKWindow, &ev, ctr)
	rx := NewReceiver(ch, 1, HBH, &ev, ctr)

	probe := flit.Flit{Type: flit.Probe, Word: 0xabc}
	probe.Check = ecc.Encode(probe.Word)
	tx.SendControl(probe)
	k.Step()
	data, ctrl := rx.ReceiveAll(k.Cycle())
	if len(data) != 0 {
		t.Fatal("control flit delivered as data")
	}
	if len(ctrl) != 1 || ctrl[0].Type != flit.Probe || ctrl[0].Word != 0xabc {
		t.Fatalf("control flit not delivered: %v", ctrl)
	}
	if tx.Credits(0) != 1 {
		t.Fatal("control flit consumed a credit")
	}
}

func TestCorruptedControlFlitDropped(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	corr := &scriptedCorruptor{plan: map[int]int{0: 2}}
	ch := NewChannel(&k, corr, false, &ev, ctr)
	tx := NewTransmitter(ch, 1, 1, NACKWindow, &ev, ctr)
	rx := NewReceiver(ch, 1, HBH, &ev, ctr)

	probe := flit.Flit{Type: flit.Probe, Word: 0xabc}
	probe.Check = ecc.Encode(probe.Word)
	tx.SendControl(probe)
	k.Step()
	data, ctrl := rx.ReceiveAll(k.Cycle())
	if len(data) != 0 || len(ctrl) != 0 {
		t.Fatal("uncorrectable control flit was delivered")
	}
}

func TestShifterOccupancyMetric(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	tx := NewTransmitter(ch, 3, 4, NACKWindow, &ev, ctr)
	occ, cap := tx.ShifterOccupancy()
	if occ != 0 || cap != 9 {
		t.Fatalf("fresh occupancy = %d/%d, want 0/9", occ, cap)
	}
	tx.Send(flit.Flit{Type: flit.Head}, 1, 0)
	occ, _ = tx.ShifterOccupancy()
	if occ != 1 {
		t.Fatalf("occupancy after send = %d, want 1", occ)
	}
}

// Property: under any random schedule of single and double errors, an
// HBH stream of whole packets arrives complete, in order, and unmodified.
func TestHBHStreamIntegrityProperty(t *testing.T) {
	f := func(seed uint64, rate8, dbl8 uint8) bool {
		rate := float64(rate8%40) / 100 // 0..0.39
		dbl := float64(dbl8%100) / 100
		inj := fault.NewLinkInjector(rate, dbl, sim.NewRNG(seed))
		var fs []flit.Flit
		for pid := 1; pid <= 6; pid++ {
			fs = append(fs, flit.Packet{ID: flit.PacketID(pid), Src: 0, Dst: 5, Size: 4}.Flits()...)
		}
		h := newHarness(HBH, inj, 8, fs)
		h.recycle = true
		h.k.Run(600)
		if len(h.accepted) != 24 {
			return false
		}
		for i, got := range h.accepted {
			wantPID := flit.PacketID(1 + i/4)
			wantSeq := uint8(i % 4)
			if got.PID != wantPID || got.Seq != wantSeq {
				return false
			}
			var wantWord uint64
			if wantSeq == 0 {
				wantWord = flit.EncodeHeader(flit.Header{Src: 0, Dst: 5, PID: wantPID})
			} else {
				wantWord = flit.PayloadWord(wantPID, wantSeq)
			}
			if got.Word != wantWord {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: credits are conserved under random error schedules — after
// the stream completes and the sink's slots are recycled, the transmitter
// sees full credit.
func TestHBHCreditConservationProperty(t *testing.T) {
	f := func(seed uint64, rate8 uint8) bool {
		rate := float64(rate8%30) / 100
		inj := fault.NewLinkInjector(rate, 0.3, sim.NewRNG(seed))
		fs := flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 4}.Flits()
		h := newHarness(HBH, inj, 4, fs)
		h.k.Run(300)
		if len(h.accepted) != 4 {
			return false
		}
		for range h.accepted {
			h.rx.ReturnCredit(0)
		}
		h.k.Run(4)
		h.tx.BeginCycle(h.k.Cycle())
		h.tx.ExpireShifters(h.k.Cycle())
		return h.tx.Credits(0) == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
