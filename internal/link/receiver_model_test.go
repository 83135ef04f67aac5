package link

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// valueRx is the receiver as it was while flits moved by value: each
// arrival is popped off the wire into a local, checked there, and the
// accepted ones are appended to two slices. mutate seeds one of the
// defects the comparison below must notice.
type valueRx struct {
	ch         *Channel
	protection Protection
	dropUntil  []uint64
	events     *stats.Events
	counters   *fault.Counters
	verify     func(cycle uint64, vc int, pid uint64, word uint64, check uint8)
	mutate     mutation
}

type mutation int

const (
	faithful         mutation = iota
	correctionLost            // a single-bit correction is not written back
	fecDataNACKed             // FEC NACKs an uncorrectable data flit
	controlOKFlipped          // a clean control flit is dropped, a corrupt one kept
)

func (m *valueRx) receiveAll(cycle uint64) (data, ctrl []flit.Flit) {
	for f, got := m.ch.Recv(); got; f, got = m.ch.Recv() {
		if d, ok, isCtrl := m.receiveOne(f, cycle); isCtrl {
			ctrl = append(ctrl, d)
		} else if ok {
			data = append(data, d)
		}
	}
	return data, ctrl
}

func (m *valueRx) receiveOne(f flit.Flit, cycle uint64) (res flit.Flit, ok, isCtrl bool) {
	if !f.IsData() {
		word, check, out := ecc.Decode(f.Word, f.Check)
		m.events.ECCDecodes++
		if (out == ecc.Detected) != (m.mutate == controlOKFlipped) {
			return flit.Flit{}, false, false
		}
		if out == ecc.Corrected {
			m.events.ECCCorrections++
			m.counters.AddCorrected(fault.LinkError)
			m.verify(cycle, -1, 0, word, check)
		}
		f.Word, f.Check = word, check
		return f, false, true
	}
	vc := int(f.VC)
	if vc >= len(m.dropUntil) {
		vc = 0
		f.VC = 0
	}
	if m.dropUntil[vc] >= cycle && m.dropUntil[vc] != 0 {
		m.counters.DroppedFlits++
		m.ch.SendCredit(uint8(vc))
		return flit.Flit{}, false, false
	}
	if m.protection == E2E && f.Type != flit.Head {
		return f, true, false
	}
	m.events.ECCDecodes++
	word, check, out := ecc.Decode(f.Word, f.Check)
	switch out {
	case ecc.OK:
		return f, true, false
	case ecc.Corrected:
		m.events.ECCCorrections++
		m.counters.AddCorrected(fault.LinkError)
		m.verify(cycle, vc, uint64(f.PID), word, check)
		if m.mutate != correctionLost {
			f.Word, f.Check = word, check
		}
		return f, true, false
	default: // ecc.Detected
		if m.protection == FEC && f.Type != flit.Head && m.mutate != fecDataNACKed {
			return f, true, false
		}
		m.nack(vc, cycle)
		return flit.Flit{}, false, false
	}
}

func (m *valueRx) nack(vc int, cycle uint64) {
	m.counters.DroppedFlits++
	m.counters.AddCorrected(fault.LinkError)
	m.ch.SendCredit(uint8(vc))
	m.ch.SendNACK(uint8(vc), NACKLinkError)
	m.dropUntil[vc] = cycle + dropWindow
}

// flipCodewordBit flips one of the 72 bits a link can corrupt.
func flipCodewordBit(f *flit.Flit, pos int) {
	if pos < 64 {
		f.Word = ecc.FlipDataBit(f.Word, pos)
	} else {
		f.Check = ecc.FlipCheckBit(f.Check, pos-64)
	}
}

// verifyCall is one invocation of the post-correction audit hook.
type verifyCall struct {
	cycle uint64
	vc    int
	pid   uint64
	word  uint64
	check uint8
}

// runAgainstValueModel feeds one random arrival stream — up to three
// flits a cycle: clean, single- and double-bit flips in data and check
// bits, probes and activations (some uncorrectable), VC ids past the last
// VC, and whatever lands inside the drop windows the errors open — to the
// in-place receiver and to the by-value model, each on a channel of its
// own, and returns the first difference: accepted flits field by field
// and in order, event and fault counters, the credits and NACKs on the
// backward wires, the verify hook's arguments.
func runAgainstValueModel(prot Protection, seed int64, mutate mutation) error {
	const vcs = 3
	rng := rand.New(rand.NewSource(seed))
	var k sim.Kernel
	var ev, mev stats.Events
	ctr, mctr := fault.NewCounters(), fault.NewCounters()
	ch := NewChannel(&k, nil, false, &ev, ctr)
	mch := NewChannel(&k, nil, false, &mev, mctr)
	rx := NewReceiver(ch, vcs, prot, &ev, ctr)
	var calls, mcalls []verifyCall
	rx.SetVerifier(func(cycle uint64, vc int, pid uint64, word uint64, check uint8) {
		calls = append(calls, verifyCall{cycle, vc, pid, word, check})
	})
	m := &valueRx{
		ch: mch, protection: prot, dropUntil: make([]uint64, vcs), events: &mev, counters: mctr, mutate: mutate,
		verify: func(cycle uint64, vc int, pid uint64, word uint64, check uint8) {
			mcalls = append(mcalls, verifyCall{cycle, vc, pid, word, check})
		},
	}
	types := []flit.Type{flit.Head, flit.Body, flit.Body, flit.Tail, flit.Probe, flit.Activation}
	for c := uint64(0); c < 400; c++ {
		for n := rng.Intn(4); n > 0; n-- {
			f := flit.Flit{
				PID: flit.PacketID(c*4 + uint64(n)), Type: types[rng.Intn(len(types))],
				Seq: uint8(rng.Intn(4)), VC: uint8(rng.Intn(vcs)), Word: rng.Uint64(),
			}
			if rng.Intn(10) == 0 {
				f.VC = uint8(vcs + rng.Intn(3))
			}
			f.Check = ecc.Encode(f.Word)
			switch a := rng.Intn(72); rng.Intn(6) {
			case 3, 4:
				flipCodewordBit(&f, a)
			case 5:
				flipCodewordBit(&f, a)
				flipCodewordBit(&f, (a+1+rng.Intn(71))%72)
			}
			ch.Send(f)
			mch.Send(f)
		}
		k.Step()
		now := k.Cycle()

		var data, ctrl []flit.Flit
		rx.Receive(now)
		for f := rx.NextControl(); f != nil; f = rx.NextControl() {
			ctrl = append(ctrl, *f)
		}
		for f := rx.NextData(); f != nil; f = rx.NextData() {
			data = append(data, *f)
		}
		if ch.VisibleFlits() != 0 {
			return fmt.Errorf("cycle %d: %d arrivals left on the wire", now, ch.VisibleFlits())
		}
		wantData, wantCtrl := m.receiveAll(now)
		if !slices.Equal(data, wantData) || !slices.Equal(ctrl, wantCtrl) {
			return fmt.Errorf("cycle %d: accepted data %v ctrl %v, model %v and %v", now, data, ctrl, wantData, wantCtrl)
		}
		if got, want := ch.RecvCredits(), mch.RecvCredits(); !slices.Equal(got, want) {
			return fmt.Errorf("cycle %d: credits visible %v, model %v", now, got, want)
		}
		if got, want := recvNACKs(ch), recvNACKs(mch); !slices.Equal(got, want) {
			return fmt.Errorf("cycle %d: NACKs visible %v, model %v", now, got, want)
		}
		if ev != mev || !reflect.DeepEqual(ctr, mctr) {
			return fmt.Errorf("cycle %d: events %+v counters %+v, model %+v and %+v", now, ev, ctr, mev, mctr)
		}
		if !slices.Equal(calls, mcalls) {
			return fmt.Errorf("cycle %d: verify hook saw %v, model %v", now, calls, mcalls)
		}
	}
	if ev.ECCCorrections == 0 || ctr.NACKs == 0 || ctr.DroppedFlits == 0 {
		return fmt.Errorf("stream exercised nothing: %+v %+v", ev, ctr)
	}
	return nil
}

// The in-place receiver against the by-value one it replaced, under every
// protection scheme; and the comparison against itself: a model with one
// seeded defect must be told apart under the scheme the defect shows in.
func TestReceiverInPlaceMatchesValueModel(t *testing.T) {
	for _, prot := range []Protection{HBH, E2E, FEC} {
		for seed := int64(1); seed <= 40; seed++ {
			if err := runAgainstValueModel(prot, seed, faithful); err != nil {
				t.Fatalf("%v seed %d: %v", prot, seed, err)
			}
		}
	}
	for _, mut := range []struct {
		prot   Protection
		defect mutation
	}{{HBH, correctionLost}, {FEC, fecDataNACKed}, {HBH, controlOKFlipped}} {
		if err := runAgainstValueModel(mut.prot, 1, mut.defect); err == nil {
			t.Errorf("%v with seeded defect %d passed the comparison", mut.prot, mut.defect)
		}
	}
}
