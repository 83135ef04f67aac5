package link

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// tickedTx is the transmitter as it was before the backward side of a hop
// became lazy: credits and NACKs arrive on sim.Pipes that are drained every
// cycle, every shifter is expired every cycle, and a running count tracks
// the occupancy. It must be ticked (beginCycle, then expire) on every
// cycle, sending or not — which is the cost the real transmitter no longer
// pays, and what makes this the oracle for it.
type tickedTx struct {
	credits    *sim.Pipe[Credit]
	nacks      *sim.Pipe[NACK]
	vcs        []tickedVC
	inShifters int
	replay     []flit.Flit

	// §4.5 upsets, drawn as the transmitter drew them while it still built
	// the stored copy on its stack: Bool, then the two bit positions.
	rbRate      float64
	rbDuplicate bool
	rbRNG       *sim.RNG
	rbFlipped   int // stored copies that took the two flips
}

type tickedVC struct {
	credits int
	shifter []retransEntry // oldest first
}

func newTickedTx(k *sim.Kernel, vcs, downstreamCap int) *tickedTx {
	m := &tickedTx{
		credits: sim.NewPipe[Credit](k, CreditLatency),
		nacks:   sim.NewPipe[NACK](k, NACKLatency),
		vcs:     make([]tickedVC, vcs),
	}
	for i := range m.vcs {
		m.vcs[i].credits = downstreamCap
	}
	return m
}

func (m *tickedTx) drain(vc int) []flit.Flit {
	var out []flit.Flit
	for _, e := range m.vcs[vc].shifter {
		out = append(out, e.f)
	}
	m.inShifters -= len(out)
	m.vcs[vc].shifter = nil
	return out
}

// popAll pops every value visible on p this cycle, oldest first.
func popAll[T any](p *sim.Pipe[T]) (vs []T) {
	for v, ok := p.Pop(); ok; v, ok = p.Pop() {
		vs = append(vs, v)
	}
	return vs
}

// recvNACKs drains every NACK visible on c this cycle (popNACK), charged
// to c's own counters: the bare-wire view for an end with no Transmitter.
func recvNACKs(c *Channel) (ns []NACK) {
	for n := c.popNACK(c.counters); n != nil; n = c.popNACK(c.counters) {
		ns = append(ns, *n)
	}
	return ns
}

// beginCycle is the old BeginCycle: link-error NACKs drain into the replay
// queue, the rest are returned, then every visible credit is counted.
func (m *tickedTx) beginCycle() (routerNACKs []NACK) {
	for _, n := range popAll(m.nacks) {
		if n.Kind != NACKLinkError {
			routerNACKs = append(routerNACKs, n)
			continue
		}
		m.replay = append(m.replay, m.drain(int(n.VC))...)
	}
	for _, c := range popAll(m.credits) {
		m.vcs[c.VC].credits++
	}
	return routerNACKs
}

// expire is the old ExpireShifters: the per-cycle walk.
func (m *tickedTx) expire(cycle uint64) {
	for i := range m.vcs {
		sh := m.vcs[i].shifter
		for len(sh) > 0 && cycle >= sh[0].sent+NACKWindow {
			sh = sh[1:]
			m.inShifters--
		}
		m.vcs[i].shifter = sh
	}
}

func (m *tickedTx) send(f flit.Flit, vc int, cycle uint64) {
	f.VC = uint8(vc)
	m.vcs[vc].credits--
	stored := f
	if m.rbRate > 0 && m.rbRNG.Bool(m.rbRate) && !m.rbDuplicate {
		stored.Word = ecc.FlipDataBit(ecc.FlipDataBit(stored.Word, m.rbRNG.Intn(64)), (m.rbRNG.Intn(63)+17)%64)
		m.rbFlipped++
	}
	m.vcs[vc].shifter = append(m.vcs[vc].shifter, retransEntry{f: stored, sent: cycle})
	m.inShifters++
}

// tickReplay is the old TickReplay; sentVC is the VC a flit went out on,
// or -1.
func (m *tickedTx) tickReplay(cycle uint64) (used bool, sentVC int) {
	if len(m.replay) == 0 {
		return false, -1
	}
	f := m.replay[0]
	if m.vcs[f.VC].credits <= 0 {
		return true, -1
	}
	m.replay = m.replay[1:]
	m.send(f, int(f.VC), cycle)
	return true, int(f.VC)
}

func (m *tickedTx) abandonVC(vc int) []flit.Flit {
	out := m.drain(vc)
	kept := m.replay[:0:0]
	for _, f := range m.replay {
		if int(f.VC) == vc {
			out = append(out, f)
		} else {
			kept = append(kept, f)
		}
	}
	m.replay = kept
	return out
}

// retained lists what EachRetained visits: the replay queue, then each
// VC's shifter, oldest first.
func (m *tickedTx) retained() []flit.Flit {
	out := slices.Clone(m.replay)
	for i := range m.vcs {
		for _, e := range m.vcs[i].shifter {
			out = append(out, e.f)
		}
	}
	return out
}

// The lazy transmitter against the ticked one under one random schedule
// of sends, credits, link-error NACKs, misroute NACKs (Recall), AbandonVC
// and stretches of up to 300 cycles in which nobody touches the real
// transmitter at all — it is called only when it has a flit to move or a
// NACK is visible on its wire, as a router calls it. Every cycle, touched
// or not, both must report the same occupancy — the transmitter's own and
// the shared window a router would read — and the same retained flits in
// the same order; every drain must hand over the same flits; and whenever
// the sender looks, the same credits. With retransmission-buffer upsets
// on (§4.5), plain or masked by the duplicate buffer, the stored copies
// must take the same two flips from the same draws — the retained flits
// are compared bit for bit — while every flit reaches the wire clean.
func TestTransmitterMatchesTickedModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { matchTickedModel(t, seed, 0, false) })
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, duplicate := range []bool{false, true} {
			t.Run(fmt.Sprintf("rbfaults/dup=%v/seed%d", duplicate, seed), func(t *testing.T) {
				matchTickedModel(t, seed, 0.2, duplicate)
			})
		}
	}
}

func matchTickedModel(t *testing.T, seed int64, rbRate float64, rbDuplicate bool) {
	const vcs, capacity = 3, 4
	rng := rand.New(rand.NewSource(seed))
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	tx := NewTransmitter(ch, vcs, capacity, NACKWindow, &ev, ctr)
	var shared SendWindow
	tx.CountInto(&shared)
	m := newTickedTx(&k, vcs, capacity)
	rbRNG := sim.NewRNG(uint64(seed))
	m.rbRate, m.rbDuplicate, m.rbRNG = rbRate, rbDuplicate, sim.NewRNG(uint64(seed))
	tx.SetRetransBufFaults(rbRate, rbDuplicate, rbRNG)
	var onWire []flit.Flit // what the sends of the cycle must put on the wire

	sameFlits := func(c uint64, what string, got, want []flit.Flit) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: %s = %v, model %v", c, what, got, want)
		}
	}
	var owed [vcs]int // flits sent and not yet credited back, per VC
	nextPID := 1
	idleUntil := uint64(0)
	for c := uint64(0); c < 6000; c++ {
		// The model's per-cycle duties — ingest, recall, then expire, the
		// order a router kept — and the real transmitter's only
		// unconditional one: a visible NACK is served on its cycle.
		routerNACKs := m.beginCycle()
		var got []NACK
		if ch.VisibleNACKs() > 0 {
			got = slices.Clone(tx.BeginCycle(c))
		}
		if !slices.Equal(got, routerNACKs) {
			t.Fatalf("cycle %d: BeginCycle returned %v, model %v", c, got, routerNACKs)
		}
		for _, n := range routerNACKs {
			sameFlits(c, "Recall", tx.Recall(nil, int(n.VC)), m.drain(int(n.VC)))
		}
		m.expire(c)

		// The receiver's side runs whatever the sender does.
		for vc := range owed {
			for owed[vc] > 0 && rng.Intn(3) == 0 {
				owed[vc]--
				ch.SendCredit(uint8(vc))
				m.credits.Push(Credit{VC: uint8(vc)})
			}
		}
		if rng.Intn(12) == 0 {
			n := NACK{VC: uint8(rng.Intn(vcs)), Kind: NACKLinkError}
			if rng.Intn(3) == 0 {
				n.Kind = NACKMisroute
			}
			ch.SendNACK(n.VC, n.Kind)
			m.nacks.Push(n)
		}

		// The sender: busy for a while, then absent for up to 300 cycles.
		if c >= idleUntil {
			if rng.Intn(25) == 0 {
				idleUntil = c + uint64(rng.Intn(301))
			}
			for vc := 0; vc < vcs; vc++ {
				if got, want := tx.Credits(vc), m.vcs[vc].credits; got != want {
					t.Fatalf("cycle %d: Credits(%d) = %d, model %d", c, vc, got, want)
				}
			}
			var replayed flit.Flit
			if len(m.replay) > 0 {
				replayed = m.replay[0]
			}
			used, sentVC := m.tickReplay(c)
			if tx.TickReplay(c) != used {
				t.Fatalf("cycle %d: TickReplay disagrees with the model (%v)", c, used)
			}
			if sentVC >= 0 {
				owed[sentVC]++
				onWire = append(onWire, replayed)
			}
			if vc := rng.Intn(vcs); !used && m.vcs[vc].credits > 0 && rng.Intn(3) != 0 {
				f := flit.Flit{PID: flit.PacketID(nextPID), Type: flit.Body, Seq: uint8(c)}
				nextPID++
				tx.Send(f, vc, c)
				m.send(f, vc, c)
				owed[vc]++
				f.VC = uint8(vc)
				onWire = append(onWire, f)
			}
		}
		if tx.HasReplay() != (len(m.replay) > 0) {
			t.Fatalf("cycle %d: HasReplay %v, model queue %d", c, tx.HasReplay(), len(m.replay))
		}

		k.Step()

		// The wire carries what was sent — a replay, what the shifter held,
		// upset and all; a fresh flit, clean whatever its stored copy took.
		for _, want := range onWire {
			want.Hops++
			if got, ok := ch.Recv(); !ok || got != want {
				t.Fatalf("after cycle %d: wire carries %+v (%v), want %+v", c, got, ok, want)
			}
		}
		onWire = onWire[:0]

		// The boundary, where the sampler and the checker look.
		if occ, _ := tx.ShifterOccupancy(); occ != m.inShifters || shared.Live(k.Cycle()) != m.inShifters {
			t.Fatalf("after cycle %d: occupancy %d, shared window %d, model %d",
				c, occ, shared.Live(k.Cycle()), m.inShifters)
		}
		var retained []flit.Flit
		tx.EachRetained(func(f flit.Flit) { retained = append(retained, f) })
		sameFlits(c, "retained flits", retained, m.retained())
		if msg := tx.AuditRetrans(k.Cycle()); msg != "" {
			t.Fatalf("after cycle %d: %s", c, msg)
		}
		if rng.Intn(40) == 0 { // hard-fault surgery runs between steps
			vc := rng.Intn(vcs)
			var gone []flit.Flit
			tx.AbandonVC(vc, func(f flit.Flit) { gone = append(gone, f) })
			sameFlits(c, "AbandonVC", gone, m.abandonVC(vc))
		}
	}
	if ev.RetransWrites == 0 || ev.Retransmitted == 0 || ctr.NACKs == 0 {
		t.Fatalf("schedule exercised nothing: %d captures, %d replays, %d NACKs", ev.RetransWrites, ev.Retransmitted, ctr.NACKs)
	}
	if (m.rbFlipped > 0) != (rbRate > 0 && !rbDuplicate) {
		t.Fatalf("%d stored copies upset at rate %v, duplicate %v", m.rbFlipped, rbRate, rbDuplicate)
	}
	if got, want := rbRNG.Uint64(), m.rbRNG.Uint64(); got != want {
		t.Fatalf("upset stream left at a different state: next draw %#x, model %#x", got, want)
	}
}

// The counter credit wire against a sim.Pipe[Credit] under random bursts
// of credits and reads up to 300 cycles apart: every read returns the same
// credits per VC, and what is still on the wire agrees in between.
func TestCreditWireMatchesPipeModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var k sim.Kernel
		var ev stats.Events
		ch := NewChannel(&k, nil, false, &ev, fault.NewCounters())
		pipe := sim.NewPipe[Credit](&k, CreditLatency)
		const vcs = 6 // past the channel's inline counters
		perVC := func(cs []Credit) (n [vcs]int) {
			for _, c := range cs {
				n[c.VC]++
			}
			return n
		}
		nextRead := uint64(0)
		for c := uint64(0); c < 3000; c++ {
			for n := rng.Intn(4) * rng.Intn(3); n > 0; n-- {
				vc := uint8(rng.Intn(vcs))
				ch.SendCredit(vc)
				pipe.Push(Credit{VC: vc})
			}
			if c >= nextRead {
				nextRead = c + uint64(rng.Intn(301))
				if got, want := perVC(ch.RecvCredits()), perVC(popAll(pipe)); got != want {
					t.Fatalf("seed %d cycle %d: RecvCredits per VC %v, pipe %v", seed, c, got, want)
				}
			}
			var onWire [vcs]int
			pipe.Each(func(cr Credit) { onWire[cr.VC]++ })
			for vc := range onWire {
				if got := ch.InFlightCredits(vc); got != onWire[vc] {
					t.Fatalf("seed %d cycle %d: InFlightCredits(%d) = %d, pipe holds %d", seed, c, vc, got, onWire[vc])
				}
			}
			k.Step()
		}
	}
}
