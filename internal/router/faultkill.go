package router

import (
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/topology"
)

// This file is the router's hard-fault surface: the accessors and
// destructive helpers the network's reconfiguration controller uses to
// rebuild routing state and excise wormholes severed by link or router
// deaths. Everything here runs serially, between kernel steps, at fault
// boundaries — never from a concurrent tick.

// RefreshWaitingRoutes recomputes the candidate set of every VA-waiting
// input VC from the (just rebuilt) routing function, so headers that
// were computed under the previous topology epoch re-request along the
// new orientation instead of waiting on candidates that no longer
// exist. No event accounting and no RT fault injection: this models the
// reconfiguration controller rewriting route registers, not the RT
// pipeline stage.
func (r *Router) RefreshWaitingRoutes() {
	for _, ivc := range r.flatVCs {
		if ivc == nil || ivc.state != vcVAWait {
			continue
		}
		ivc.candidates = r.cfg.Route.Route(r.id, ivc.dst)
	}
}

// Transmitter returns the transmitter attached to output port p, or nil.
// Reconfiguration-controller access for dead-channel abandonment.
func (r *Router) Transmitter(p topology.Port) *link.Transmitter {
	if !p.Valid() || r.out[p] == nil {
		return nil
	}
	return r.out[p].tx
}

// OutputOwner resolves the wormhole occupying output VC (p, vc) back to
// the input VC that owns it. ok is false when the output VC is free or
// the port unattached.
func (r *Router) OutputOwner(p topology.Port, vc int) (inPort topology.Port, inVC int, ok bool) {
	if !p.Valid() || r.out[p] == nil || vc < 0 || vc >= len(r.out[p].vcs) {
		return 0, 0, false
	}
	ov := r.out[p].vcs[vc]
	if !ov.busy {
		return 0, 0, false
	}
	return ov.inPort, ov.inVC, true
}

// InputBinding resolves the downstream allocation of input VC (p, vc):
// which output VC its resident wormhole holds. active is false when the
// VC is idle, still waiting for allocation, or stranded by a corrupted
// binding.
func (r *Router) InputBinding(p topology.Port, vc int) (outPort topology.Port, outVC int, active bool) {
	ip := r.in[p]
	if !p.Valid() || ip == nil || vc < 0 || vc >= len(ip.vcs) {
		return 0, 0, false
	}
	ivc := ip.vcs[vc]
	if ivc.state != vcActive || !ivc.outPort.Valid() || r.out[ivc.outPort] == nil ||
		ivc.outVC < 0 || ivc.outVC >= r.cfg.VCs {
		return 0, 0, false
	}
	return ivc.outPort, ivc.outVC, true
}

// WormDst returns the destination of the packet resident in input VC
// (p, vc) and whether one is resident at all (state not idle).
func (r *Router) WormDst(p topology.Port, vc int) (dst flit.NodeID, resident bool) {
	ip := r.in[p]
	if !p.Valid() || ip == nil || vc < 0 || vc >= len(ip.vcs) {
		return 0, false
	}
	ivc := ip.vcs[vc]
	if ivc.state == vcIdle {
		return 0, false
	}
	return ivc.dst, true
}

// StuckWorm reports whether input VC (p, vc) holds a VA-waiting header
// that can never be allocated: a fresh route computation, filtered by
// the VA's own legality rules (attached ports, live links), yields no
// candidate. With irreversible hard faults an empty legal set is
// permanent, so a stuck worm is safe to excise. The fresh computation
// bypasses the RT stage's event accounting and fault injection — this
// is the reconfiguration controller peeking, not the pipeline routing.
func (r *Router) StuckWorm(p topology.Port, vc int) bool {
	ip := r.in[p]
	if !p.Valid() || ip == nil || vc < 0 || vc >= len(ip.vcs) {
		return false
	}
	ivc := ip.vcs[vc]
	return ivc.state == vcVAWait && r.deadEnd(r.cfg.Route.Route(r.id, ivc.dst), ivc.dst)
}

// EachWaitingVC visits every VA-waiting input VC — the candidates for
// the network's stuck-worm sweep.
func (r *Router) EachWaitingVC(fn func(p topology.Port, vc int, dst flit.NodeID)) {
	for _, ivc := range r.flatVCs {
		if ivc == nil || ivc.state != vcVAWait {
			continue
		}
		fn(ivc.port, ivc.idx, ivc.dst)
	}
}

// KillVC excises whatever wormhole state input VC (p, vc) holds: every
// buffered flit is drained (returning its upstream credit, preserving
// the per-VC credit law), parked pending flits are discarded (their
// credits were returned when they were parked), the downstream output
// VC reservation is released, and the VC returns to idle. fn (if
// non-nil) observes every removed flit for packet accounting. It
// returns the number of flits removed. Serial use only.
func (r *Router) KillVC(cycle uint64, p topology.Port, vc int, fn func(flit.Flit)) int {
	ip := r.in[p]
	if !p.Valid() || ip == nil || vc < 0 || vc >= len(ip.vcs) {
		return 0
	}
	ivc := ip.vcs[vc]
	removed := 0
	for {
		f, ok := ivc.buf.Pop()
		if !ok {
			break
		}
		ip.rx.ReturnCredit(vc)
		r.buffered--
		removed++
		if fn != nil {
			fn(f)
		}
	}
	r.parked -= len(ivc.queued())
	for _, f := range ivc.queued() {
		removed++
		if fn != nil {
			fn(f)
		}
	}
	ivc.clearPending()
	if ivc.state == vcActive && ivc.outPort.Valid() && r.out[ivc.outPort] != nil &&
		ivc.outVC >= 0 && ivc.outVC < r.cfg.VCs {
		r.out[ivc.outPort].vcs[ivc.outVC] = outputVC{}
	}
	r.resetVC(ivc, cycle)
	return removed
}
