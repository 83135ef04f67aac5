package link

import (
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// napper runs poll on every tick, then sleeps until a delivery wakes it.
type napper struct {
	ticks []uint64
	poll  func()
}

func (n *napper) Tick(c uint64)                   { n.ticks = append(n.ticks, c); n.poll() }
func (n *napper) Quiescent(uint64) (bool, uint64) { return true, 0 }

// The channel's two ends are hooked independently: flits mark and wake
// the receiver's owner, NACKs mark and wake the transmitter's owner, and
// credits do neither — they wait in their counters to be read.
func TestChannelHooks(t *testing.T) {
	var k sim.Kernel
	var ev stats.Events
	ch := NewChannel(&k, nil, false, &ev, fault.NewCounters())
	var flits, nacks int
	rxA := &napper{poll: func() {
		if _, ok := ch.Recv(); ok {
			flits++
		}
	}}
	txA := &napper{poll: func() { nacks += len(recvNACKs(ch)) }}
	rxH, txH := k.RegisterActor(rxA), k.RegisterActor(txA)
	k.EnableQuiescence(rxH)
	k.EnableQuiescence(txH)
	var rxMask, txMask uint8
	ch.MarkRx(&rxMask, 1<<2)
	ch.WakeRx(rxH)
	ch.WakeTx(txH) // wake first, mark second: the halves compose in any order
	ch.MarkTx(&txMask, 1<<4)

	k.Run(2) // both tick once and sleep
	nRx, nTx := len(rxA.ticks), len(txA.ticks)

	ch.Send(flit.Flit{Type: flit.Head})
	k.Run(FlitLatency + 1)
	if rxMask != 1<<2 || txMask != 0 {
		t.Fatalf("after a flit: rx mask %#x tx mask %#x, want %#x and 0", rxMask, txMask, 1<<2)
	}
	if len(rxA.ticks) != nRx+1 || len(txA.ticks) != nTx {
		t.Fatalf("after a flit: receiver ticks %v, transmitter ticks %v; want only the receiver woken", rxA.ticks, txA.ticks)
	}
	if flits != 1 {
		t.Fatal("the woken receiver found no flit")
	}
	rxMask = 0

	nRx = len(rxA.ticks)
	ch.SendCredit(1)
	k.Run(CreditLatency + 1)
	if txMask != 0 || rxMask != 0 {
		t.Fatalf("after a credit: tx mask %#x rx mask %#x, want both 0", txMask, rxMask)
	}
	if len(txA.ticks) != nTx || len(rxA.ticks) != nRx {
		t.Fatal("a credit woke somebody; credits must neither mark nor wake")
	}
	if ch.InFlightCredits(1) != 1 || len(ch.RecvCredits()) != 1 || ch.InFlightCredits(1) != 0 || len(ch.RecvCredits()) != 0 {
		t.Fatal("credit not readable exactly once")
	}

	sentAt := k.Cycle()
	ch.SendNACK(0, NACKMisroute)
	k.Run(NACKLatency + 1)
	if txMask != 1<<4 {
		t.Fatalf("after a NACK: tx mask %#x, want %#x", txMask, 1<<4)
	}
	if len(txA.ticks) != nTx+1 || txA.ticks[nTx] != sentAt+NACKLatency || nacks != 1 {
		t.Fatalf("NACK sent at %d: transmitter ticks %v found %d NACKs, want one tick at %d finding 1",
			sentAt, txA.ticks, nacks, sentAt+NACKLatency)
	}
}
