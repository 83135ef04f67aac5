package router

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// maskViolation states the mask-soundness law from the wires and the
// transmitters themselves: on every attached port a clear bit must mean
// nothing to service. It returns the first breach, or "".
func maskViolation(r *Router) string {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		rx, tx, replay := r.PortMarks(p)
		if ip := r.in[p]; ip != nil && !rx {
			if n := ip.rx.Channel().VisibleFlits(); n > 0 {
				return fmt.Sprintf("router %d in %v: rxPending clear with %d flits visible", r.id, p, n)
			}
		}
		if op := r.out[p]; op != nil {
			if n := op.tx.Channel().VisibleNACKs(); !tx && n > 0 {
				return fmt.Sprintf("router %d out %v: txPending clear with %d NACKs visible", r.id, p, n)
			}
			if n := op.tx.PendingReplay(); !replay && n > 0 {
				return fmt.Sprintf("router %d out %v: txReplay clear with %d flits to replay", r.id, p, n)
			}
		}
	}
	return ""
}

// audit runs the mask law and the structural audit (which includes the
// running occupancy counts) on every router of the grid.
func (p *pair) audit(t *testing.T, when string) {
	t.Helper()
	for _, r := range append([]*Router{p.a, p.b}, p.extra...) {
		if msg := maskViolation(r); msg != "" {
			t.Fatalf("%s, cycle %d: %s", when, p.k.Cycle(), msg)
		}
		if msg := r.AuditInvariants(p.k.Cycle()); msg != "" {
			t.Fatalf("%s, cycle %d: %s", when, p.k.Cycle(), msg)
		}
		if msg := r.AuditVCMasks(); msg != "" {
			t.Fatalf("%s, cycle %d: %s", when, p.k.Cycle(), msg)
		}
	}
}

// A router wired by hand — channels attached, actors registered, no
// kernel wake and no network — must still see every flit and every
// credit: attachment alone installs the hooks that drive its port masks,
// and credits need none. And a sender that has put its last flit on the
// wire is quiet at once, asking for no timed wake, while that flit still
// sits in the shifter inside its NACK window.
func TestHandWiredRouterNeedsNoWaker(t *testing.T) {
	p := newPair(t, 3)
	p.autoSink()
	// Three packets on one VC: 12 flits through 4-deep buffers, so the
	// stream only completes if credits keep coming back.
	var fs []flit.Flit
	for pid := 1; pid <= 3; pid++ {
		fs = append(fs, flit.Packet{ID: flit.PacketID(pid), Src: 0, Dst: 1, Size: 4}.Flits()...)
	}
	p.driveSource(fs)
	east := p.a.out[topology.East].tx
	quietWhileHeld := false
	for i := 0; i < 60; i++ {
		p.k.Step()
		p.audit(t, "streaming")
		if p.a.buffered == 0 && p.a.waitVA == 0 && p.a.active == 0 && east.Retained() > 0 {
			quiet, wake := p.a.Quiescent(p.k.Cycle() - 1)
			if !quiet || wake != 0 {
				t.Fatalf("cycle %d: sender drained, %d flits still in their NACK window: Quiescent = %v, wake %d; want quiet with no timed wake",
					p.k.Cycle(), east.Retained(), quiet, wake)
			}
			quietWhileHeld = true
		}
	}
	if !quietWhileHeld {
		t.Fatal("never saw the sender drained with flits still in its shifters; the quiescence check is vacuous")
	}
	if len(p.arrived) != len(fs) {
		t.Fatalf("arrived %d flits, want %d: the router missed flits or credits", len(p.arrived), len(fs))
	}
	for vc := 0; vc < 2; vc++ {
		if got := east.Credits(vc); got != 4 {
			t.Errorf("a.East VC %d ended with %d credits, want all 4 back", vc, got)
		}
	}
	for _, r := range []*Router{p.a, p.b} {
		if r.rxPending|r.txPending|r.txReplay != 0 {
			t.Errorf("router %d idle with masks rx %#x tx %#x replay %#x, want all clear",
				r.id, r.rxPending, r.txPending, r.txReplay)
		}
		if occ, _ := r.ShifterOccupancy(p.k.Cycle()); occ != 0 {
			t.Errorf("router %d idle: shifter occupancy %d, want 0", r.id, occ)
		}
	}
}

// Hard-fault surgery runs between steps, behind the routers' backs. Every
// primitive only removes traffic (or pushes credits through the ordinary
// latched wire), so the masks must stay sound through and after each one,
// and the routers must go on to drain whatever the surgery left visible.
func TestMaskSoundnessUnderSurgery(t *testing.T) {
	surgeries := []struct {
		name string
		cut  func(t *testing.T, r *row)
	}{
		{"DestroyData per VC", func(t *testing.T, r *row) {
			for vc := 0; vc < 2; vc++ {
				r.a.out[topology.East].tx.Channel().DestroyData(vc, nil)
			}
		}},
		{"DestroyData whole channel + DropNACKs", func(t *testing.T, r *row) {
			ch := r.a.out[topology.East].tx.Channel()
			ch.DestroyData(-1, nil)
			ch.DropNACKs()
		}},
		{"AbandonVC", func(t *testing.T, r *row) {
			for vc := 0; vc < 2; vc++ {
				r.a.out[topology.East].tx.AbandonVC(vc, nil)
			}
		}},
		{"AbandonAll", func(t *testing.T, r *row) { r.a.out[topology.East].tx.AbandonAll(nil) }},
		{"Recall", func(t *testing.T, r *row) {
			for vc := 0; vc < 2; vc++ {
				r.a.out[topology.East].tx.Recall(nil, vc)
			}
		}},
		{"KillVC", func(t *testing.T, r *row) {
			for vc := 0; vc < 2; vc++ {
				r.b.KillVC(r.k.Cycle(), topology.West, vc, nil)
			}
		}},
	}
	for _, s := range surgeries {
		t.Run(s.name, func(t *testing.T) {
			r := newRow(t)
			r.autoSink()
			var fs []flit.Flit
			for pid := 1; pid <= 3; pid++ {
				fs = append(fs, flit.Packet{ID: flit.PacketID(pid), Src: 0, Dst: 2, Size: 4}.Flits()...)
			}
			r.driveSource(fs)
			// Seven cycles in, the first packet straddles a's East shifters,
			// the a->b wire and b's West buffers.
			for i := 0; i < 7; i++ {
				r.k.Step()
				r.audit(t, "before surgery")
			}
			if r.a.out[topology.East].tx.Retained() == 0 || r.b.buffered == 0 {
				t.Fatal("nothing in flight at the cut; the surgery would be vacuous")
			}
			s.cut(t, r)
			r.audit(t, "right after surgery")
			for i := 0; i < 60; i++ {
				r.k.Step()
				r.audit(t, "after surgery")
			}
			for _, x := range []*Router{r.a, r.b, r.c} {
				for p := topology.Port(0); p < topology.NumPorts; p++ {
					if ip := x.in[p]; ip != nil && ip.rx.Channel().VisibleFlits() != 0 {
						t.Errorf("router %d in %v: flits left on the wire", x.id, p)
					}
					if op := x.out[p]; op != nil && op.tx.Channel().VisibleNACKs() != 0 {
						t.Errorf("router %d out %v: NACKs left on the wire", x.id, p)
					}
				}
			}
		})
	}
}

// The allocator masks are exact, not supersets: the vc-masks audit must
// name a set bit over a VC that has moved on, a missing bit under one
// that waits, a VC filed under the wrong output port, a live VC the live
// set has lost and a Rule-1 bound past a live VC's clock — and pass on
// every cycle of an honest run.
func TestAuditVCMasksCatchesDrift(t *testing.T) {
	p := newPair(t, 3)
	p.autoSink()
	p.driveSource(flit.Packet{ID: 1, Src: 0, Dst: 1, Size: 4}.Flits())
	var sawWait, sawActive bool
	for i := 0; i < 12 && !(sawWait && sawActive); i++ {
		p.k.Step()
		p.audit(t, "honest run")
		local := p.a.in[topology.Local].vcs[0]
		bit := uint64(1) << uint(local.flat)
		breaks := map[string]func(){
			"rule1At": func() { p.a.rule1At = local.lastProgress + p.a.cfg.Cthres + 1 },
		}
		switch local.state {
		case vcVAWait:
			sawWait = true
			breaks["waitVA"] = func() { p.a.waitVA &^= bit }
			breaks["saMask"] = func() { p.a.saMask[topology.East] |= bit }
			breaks["active"] = func() { p.a.active |= bit }
		case vcActive:
			sawActive = true
			breaks["waitVA"] = func() { p.a.waitVA |= bit }
			breaks["saMask"] = func() { p.a.saMask[topology.East], p.a.saMask[topology.West] = 0, bit }
			breaks["active"] = func() { p.a.active &^= bit }
			breaks["liveVCs"] = func() { p.a.liveVCs &^= bit }
		default:
			continue
		}
		for want, damage := range breaks {
			waitVA, saMask, active, live, rule1At := p.a.waitVA, p.a.saMask, p.a.active, p.a.liveVCs, p.a.rule1At
			damage()
			if msg := p.a.AuditVCMasks(); !strings.Contains(msg, want) {
				t.Errorf("cycle %d, VC state %d, damaged %s: audit says %q", p.k.Cycle(), local.state, want, msg)
			}
			p.a.waitVA, p.a.saMask, p.a.active, p.a.liveVCs, p.a.rule1At = waitVA, saMask, active, live, rule1At
		}
	}
	if !sawWait || !sawActive {
		t.Fatalf("packet never seen in VA wait (%v) and active (%v) at a boundary", sawWait, sawActive)
	}
}

// A flit crosses a hop through pointers — into the wire slot, the VC
// buffer slot, executeGrant's stack copy, the shifter entry — and if any
// of them let its address escape, the compiler moves a flit to the heap
// on every hop. A hand-wired PE -> router -> router -> PE stream, warmed
// up until every ring and scratch buffer has its size, must therefore
// run without allocating.
func TestHopDoesNotAllocate(t *testing.T) {
	p := newPair(t, 3)
	packet := flit.Packet{ID: 1, Src: 0, Dst: 1, Size: 4}.Flits()
	sent, arrived := 0, 0
	p.k.Register(sim.ActorFunc(func(c uint64) {
		p.srcTx.BeginCycle(c)
		if vc := sent / len(packet) % 2; p.srcTx.Credits(vc) > 0 {
			f := packet[sent%len(packet)]
			p.srcTx.SendFlit(&f, vc, c)
			sent++
		}
	}))
	p.k.Register(sim.ActorFunc(func(c uint64) {
		p.dstRx.Receive(c)
		for f := p.dstRx.NextData(); f != nil; f = p.dstRx.NextData() {
			p.dstRx.ReturnCredit(int(f.VC))
			arrived++
		}
	}))
	p.k.Run(200)
	before := arrived
	if allocs := testing.AllocsPerRun(20, func() { p.k.Run(50) }); allocs != 0 {
		t.Errorf("%v allocations per 50 cycles of a steady two-router stream, want 0", allocs)
	}
	if arrived-before < 500 {
		t.Fatalf("only %d flits crossed both routers while measuring; the guard measured an idle network", arrived-before)
	}
	p.audit(t, "after the guard")
}

// The allocators visit requesters by walking rotated(mask, origin) low to
// high. For every VC count a router takes, every origin and a spread of
// masks, that walk must be the round-robin probe (origin+j)%n, j = 0..n-1,
// restricted to the mask's set bits, in that order. With the exact
// vc-masks law this is the whole argument that a mask walk grants what a
// probe of every VC would; VCs = 12 puts bit 59 and the wrap to bit 0 at
// the word's edge.
func TestRotatedWalkIsDenseProbeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for vcs := 1; vcs <= MaxVCs; vcs++ {
		n := int(topology.NumPorts) * vcs
		full := ^uint64(0) >> uint(64-n)
		masks := []uint64{0, full}
		for b := 0; b < n; b++ {
			masks = append(masks, 1<<uint(b))
		}
		for i := 0; i < 200; i++ {
			masks = append(masks, rng.Uint64()&full)
		}
		for _, mask := range masks {
			for origin := 0; origin < n; origin++ {
				var got, want []int
				for _, m := range rotated(mask, origin) {
					for ; m != 0; m &= m - 1 {
						got = append(got, bits.TrailingZeros64(m))
					}
				}
				for j := 0; j < n; j++ {
					if i := (origin + j) % n; mask&(1<<uint(i)) != 0 {
						want = append(want, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("VCs %d, mask %#x, origin %d: walk visits %v, the probe %v", vcs, mask, origin, got, want)
				}
			}
		}
	}
}
