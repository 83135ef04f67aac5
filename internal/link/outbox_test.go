package link

import (
	"fmt"
	"reflect"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// A channel whose pushes go through an open outbox, committed after each
// cycle's sends, shows its consumers exactly what a channel pushed
// directly shows, cycle by cycle, on all three wires — including bursts
// past the outbox's inline arrays and a Close mid-stream.
func TestOutboxMatchesDirectWires(t *testing.T) {
	type end struct {
		k  sim.Kernel
		ch *Channel
	}
	mk := func() *end {
		e := &end{}
		var ev stats.Events
		e.ch = NewChannel(&e.k, nil, false, &ev, fault.NewCounters())
		e.ch.fitCredits(3)
		return e
	}
	direct, boxed := mk(), mk()
	box := &NewOutboxes(nil, []*Channel{boxed.ch})[0]
	box.Open()
	rng := sim.NewRNG(5)
	var seen [2][]string
	for c := 0; c < 300; c++ {
		if c == 250 {
			box.Close()
		}
		flits, credits, nacks := rng.Intn(4), rng.Intn(12), rng.Intn(6)
		for i, e := range []*end{direct, boxed} {
			cyc := e.k.Cycle()
			f, ok := e.ch.Recv()
			seen[i] = append(seen[i], fmt.Sprint(cyc, f.Seq, ok, e.ch.RecvCredits(), recvNACKs(e.ch)))
			for j := 0; j < flits; j++ {
				e.ch.Send(flit.Flit{Seq: uint8(c*4 + j), Type: flit.Body})
			}
			for j := 0; j < credits; j++ {
				e.ch.SendCredit(uint8(j % 3))
			}
			for j := 0; j < nacks; j++ {
				e.ch.SendNACK(uint8(j%3), NACKLinkError)
			}
		}
		box.Commit()
		direct.k.Step()
		boxed.k.Step()
		if direct.ch.flits.InFlight() != boxed.ch.flits.InFlight() {
			t.Fatalf("cycle %d: %d flits on the boxed wire, %d on the direct one", c, boxed.ch.flits.InFlight(), direct.ch.flits.InFlight())
		}
	}
	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatal("the boxed channel's consumers saw something else")
	}
}
