package router

import (
	"testing"

	"ftnoc/internal/ac"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/topology"
)

// NewRouters carves every router's VC state out of shared arenas, so the
// windows must not overlap: with every input VC of three neighbouring
// routers filled to capacity, each buffer holds exactly its own flits. A
// misroute recall — the recalled flits put ahead of a VC's pending queue
// — must land in that VC's pending window, or storage of its own once it
// outgrows the window, leaving every buffer window, every other pending
// window and every other shifter untouched. The output-VC tables and the binding
// scratch are windows too: with every output VC of every router bound,
// each router's table and binding snapshot name only its own bindings.
func TestRouterArenaWindows(t *testing.T) {
	p := buildGrid(t, 3, 1, 3)
	rs := []*Router{p.a, p.b, p.extra[0]}
	stamp := func(i int, ivc *inputVC, slot int) flit.PacketID {
		return flit.PacketID(1000*i + 100*int(ivc.port) + 10*ivc.idx + slot)
	}
	for i, r := range rs {
		for _, ivc := range r.flatVCs {
			if ivc == nil {
				continue
			}
			for s := 0; s < ivc.buf.Cap(); s++ {
				ivc.buf.Push(&flit.Flit{PID: stamp(i, ivc, s), Type: flit.Body})
			}
		}
	}
	intact := func(when string) {
		t.Helper()
		for i, r := range rs {
			for _, ivc := range r.flatVCs {
				if ivc == nil {
					continue
				}
				got := ivc.buf.Snapshot()
				if len(got) != ivc.buf.Cap() {
					t.Fatalf("%s: router %d %v/%d holds %d flits, want %d", when, i, ivc.port, ivc.idx, len(got), ivc.buf.Cap())
				}
				for s, f := range got {
					if f.PID != stamp(i, ivc, s) {
						t.Fatalf("%s: router %d %v/%d slot %d holds pid %d: a neighbour's window overlaps", when, i, ivc.port, ivc.idx, s, f.PID)
					}
				}
			}
		}
	}
	intact("filled")

	// Router 1 sent a 3-flit packet east for its West input VC 0 and the
	// neighbour reports a misroute; twice, on output VCs 0 and 1, so the
	// second recall goes ahead of a non-empty pending queue.
	mid, east := p.b, p.b.out[topology.East]
	owner := mid.in[topology.West].vcs[0]
	for round := 0; round < 2; round++ {
		pkt := flit.Packet{ID: flit.PacketID(50 + round), Src: 1, Dst: 2, Size: 3}
		for _, f := range pkt.Flits() {
			east.tx.Send(f, round, p.k.Cycle())
		}
		east.vcs[round] = outputVC{busy: true, inPort: topology.West, inVC: 0}
		mid.recoverMisroute(topology.East, round, p.k.Cycle())
		if q := owner.queued(); len(q) != 3*(round+1) || q[0].PID != pkt.ID {
			t.Fatalf("recall %d: pending %v", round, q)
		}
		// The first recall gave every input VC of the router a pending
		// window. Filling the next VC's window leaves the owner's queue
		// intact, first inside its own window and then, after the second
		// recall outgrew it, in storage of its own.
		next := mid.flatVCs[owner.flat+1]
		for s := 0; s < link.NACKWindow; s++ {
			next.park(flit.Flit{PID: 999})
		}
		if q := owner.queued(); len(q) != 3*(round+1) || q[0].PID != pkt.ID || q[len(q)-1].PID != 50 {
			t.Fatalf("recall %d: pending %v after filling the next VC's window", round, q)
		}
		next.clearPending()
		for _, ivc := range mid.flatVCs {
			if ivc != nil && ivc != owner && cap(ivc.pending) != link.NACKWindow {
				t.Fatalf("recall %d: router 1 %v/%d has a %d-flit pending window, want %d", round, ivc.port, ivc.idx, cap(ivc.pending), link.NACKWindow)
			}
		}
		for _, ivc := range p.a.flatVCs {
			if ivc != nil && cap(ivc.pending) != 0 {
				t.Fatalf("recall %d: router 0 %v/%d has a pending window, though it never parked", round, ivc.port, ivc.idx)
			}
		}
		intact("after recall")
		for i, r := range rs {
			for port, op := range r.out {
				if op != nil && op.tx.Retained() != 0 {
					t.Fatalf("recall %d: router %d port %d retains %d flits", round, i, port, op.tx.Retained())
				}
			}
		}
	}

	bound := 0
	for i, r := range rs {
		for _, op := range r.out {
			if op == nil {
				continue
			}
			for v := range op.vcs {
				op.vcs[v] = outputVC{busy: true, inPort: topology.Port(i), inVC: v}
			}
			bound += len(op.vcs)
		}
	}
	snaps := make([][]ac.Binding, len(rs))
	for i, r := range rs {
		snaps[i] = r.existingBindings()
	}
	total := 0
	for i, r := range rs {
		for _, b := range snaps[i] {
			if e := r.out[b.OutPort].vcs[b.OutVC]; b.InPort != topology.Port(i) || !e.busy || e.inPort != topology.Port(i) {
				t.Fatalf("router %d binding snapshot holds %+v: a neighbour's window overlaps", i, b)
			}
		}
		total += len(snaps[i])
	}
	if total != bound {
		t.Fatalf("binding snapshots hold %d bindings, want %d", total, bound)
	}
}
