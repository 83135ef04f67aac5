package router

import (
	"math"
	"math/bits"
	"slices"

	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// exitHysteresis is how many consecutive all-clear cycles a node must
// observe before leaving recovery mode. Exiting on a momentarily clear
// cycle drops the new-packet gate too early: fresh wormholes flood the
// just-created slack, the deadlock re-forms at higher buffer occupancy,
// and after a few such ratchets the configuration exceeds the Eq. (1)
// absorption capacity and becomes unrecoverable.
const exitHysteresis = 32

// blockedForward is the minimum blocked time (cycles) for a VC to count
// as "also blocked" when deciding whether to forward a probe (Rule 2). A
// VC that advanced very recently is making progress, so a suspicion
// passing through it is a false positive.
const blockedForward = 4

// deadlock runs the probing detection protocol of §3.2.2 and the
// retransmission-buffer recovery of §3.2.1.
func (r *Router) deadlock(cycle uint64) {
	if !r.cfg.RecoveryEnabled {
		return
	}
	// Prune before the recovery branch: a node can spend many windows in
	// recovery mode, and skipping pruning there let probeSeen grow without
	// bound in long soak/daemon runs. Pruning neither reads nor writes any
	// state the probing rules below consult this cycle (entries are added
	// during ingest, which already ran).
	r.pruneProbeSeen(cycle)
	if r.inRecovery {
		r.recoveryStep(cycle)
		return
	}
	// Rule 1: probe for every VC blocked past the threshold. A VC blocked
	// for Cthres cycles has cycle >= lastProgress + Cthres >= rule1At, so
	// before rule1At there is nothing to find. A blocked VC is non-idle
	// (probeRule1 passes over idle ones), so the probes go out in
	// ascending flat order over the VA-waiting and active VCs, and the
	// same walk takes the new bound over every live VC: an idle one
	// holding the next packet's head keeps the clock resetVC started.
	if cycle < r.rule1At {
		return
	}
	r.rule1At = math.MaxUint64
	for m := r.liveVCs | r.waitVA | r.active; m != 0; m &= m - 1 {
		ivc := r.flatVCs[bits.TrailingZeros64(m)]
		r.probeRule1(cycle, ivc)
		r.rule1At = min(r.rule1At, ivc.lastProgress+r.cfg.Cthres)
	}
}

// probeRule1 applies Rule 1 to one input VC: probe if it has been blocked
// past the threshold. Re-probe only after a cool-down, in case the
// previous probe was lost or its activation path diverged.
func (r *Router) probeRule1(cycle uint64, ivc *inputVC) {
	if ivc.state == vcIdle {
		return
	}
	if ivc.blockedFor(cycle) < r.cfg.Cthres {
		return
	}
	if ivc.probeSentAt != 0 && cycle-ivc.probeSentAt < reprobeInterval {
		return
	}
	if r.sendSignal(cycle, flit.Probe, ivc, probeMsg{
		Origin:     r.id,
		OriginPort: ivc.port,
		OriginVC:   uint8(ivc.idx),
	}) {
		// Note: sending a probe does NOT make this VC a deadlock
		// member — it is merely a suspect. Membership comes from the
		// probe's loop completing (ownProbeReturned) or from sitting
		// on another probe's dependency chain (forwardSignal); a
		// packet blocked behind a deadlock, rather than inside one,
		// never sees its probe again and must not be allowed to eat
		// the recovery slack.
		ivc.probeOutstanding = true
		ivc.probeSentAt = cycle
		r.probesSent++
	}
}

// sendSignal emits a probe or activation along the blocked packet's next
// hop, filling in the target VC at the receiving node. It reports whether
// a usable next hop existed.
func (r *Router) sendSignal(cycle uint64, t flit.Type, ivc *inputVC, m probeMsg) bool {
	var port topology.Port
	switch ivc.state {
	case vcActive:
		port = ivc.outPort
		m.TargetVC = uint8(ivc.outVC)
	case vcVAWait:
		legal := r.legalCandidates(ivc.candidates, ivc.dst)
		if len(legal) == 0 || legal[0] == topology.Local {
			return false
		}
		port = legal[0]
		m.TargetVC = AnyVC
	default:
		return false
	}
	if port == topology.Local || !port.Valid() || r.out[port] == nil {
		return false
	}
	r.out[port].tx.SendControl(probeFlit(t, m))
	if r.cfg.Bus.Enabled() {
		aux := trace.AuxProbe
		if t == flit.Activation {
			aux = trace.AuxActivation
		}
		r.emit(trace.ProbeSent, cycle, int8(ivc.port), int8(ivc.idx), 0, 0, aux)
	}
	return true
}

// rememberProbe records that a probe with key k passed at cycle, for
// validating its activation (Rule 3). The table grows from the first
// probe: most routers never see one.
func (r *Router) rememberProbe(k probeKey, cycle uint64) {
	if i := r.probeAt(k); i >= 0 {
		r.probeSeen[i].at = cycle
		return
	}
	r.probeSeen = append(sim.Grow(r.slabs(), r.probeSeen, 1), probeRecord{k, cycle})
}

// probeAt returns the index of k's record in probeSeen, or -1.
func (r *Router) probeAt(k probeKey) int {
	return slices.IndexFunc(r.probeSeen, func(p probeRecord) bool { return p.key == k })
}

// handleControl processes an arriving probe or activation flit (Rules
// 2-4 of §3.2.2).
func (r *Router) handleControl(cycle uint64, p topology.Port, f *flit.Flit) {
	if !r.cfg.RecoveryEnabled {
		return
	}
	m := decodeProbe(f.Word)
	switch f.Type {
	case flit.Probe:
		if m.Origin == r.id {
			r.ownProbeReturned(cycle, m)
			return
		}
		// Rule 2: remember the probe (for Rule 3) and forward it if the
		// suspected buffer is blocked here too.
		r.rememberProbe(m.key(), cycle)
		r.forwardSignal(cycle, p, flit.Probe, m)
	case flit.Activation:
		if m.Origin == r.id {
			// Our activation completed the loop: switch to recovery mode
			// (the sender switches after the activation returns).
			r.enterRecovery(cycle)
			return
		}
		// Rule 3: only honor activations whose probe we forwarded.
		if r.probeAt(m.key()) < 0 {
			return
		}
		// Rule 4: switch to recovery mode and pass the activation on.
		r.enterRecovery(cycle)
		r.forwardSignal(cycle, p, flit.Activation, m)
	}
}

// ownProbeReturned handles a probe completing its loop back to the
// origin: the suspected flit is confirmed deadlocked, so an activation is
// dispatched along the same path — unless recovery is already under way
// (Rule 4: discard our own probe).
func (r *Router) ownProbeReturned(cycle uint64, m probeMsg) {
	if r.in[m.OriginPort] == nil || int(m.OriginVC) >= r.cfg.VCs {
		return
	}
	ivc := r.in[m.OriginPort].vcs[m.OriginVC]
	ivc.probeOutstanding = false
	if ivc.state == vcIdle {
		return // the packet advanced while the probe travelled
	}
	// The loop completed: the packet is confirmed inside a cyclic
	// dependency and may advance into recovering buffers.
	ivc.member = true
	if r.inRecovery {
		return // Rule 4: recovery already active; discard our own probe
	}
	r.sendSignal(cycle, flit.Activation, ivc, probeMsg{
		Origin:     r.id,
		OriginPort: m.OriginPort,
		OriginVC:   m.OriginVC,
	})
}

// forwardSignal applies Rule 2 to an incoming probe/activation: find the
// suspected VC on the arrival port; if it is blocked here as well (or the
// node is already recovering), pass the signal along that VC's own next
// hop with the target rewritten; otherwise discard it.
func (r *Router) forwardSignal(cycle uint64, p topology.Port, t flit.Type, m probeMsg) {
	if m.Hops >= maxProbeHops || r.in[p] == nil {
		return
	}
	var ivc *inputVC
	if m.TargetVC == AnyVC {
		// The suspected packet upstream is waiting for *any* VC on this
		// port: the suspicion holds only if all of them are occupied;
		// the dependency chain continues through the most-blocked one.
		var worst uint64
		for _, v := range r.in[p].vcs {
			if v.state == vcIdle {
				return // a VC is free; upstream will get it — no deadlock
			}
			if b := v.blockedFor(cycle); ivc == nil || b > worst {
				ivc, worst = v, b
			}
		}
	} else {
		if int(m.TargetVC) >= r.cfg.VCs {
			return
		}
		ivc = r.in[p].vcs[m.TargetVC]
	}
	if ivc == nil || ivc.state == vcIdle {
		return
	}
	if ivc.blockedFor(cycle) < blockedForward && !r.inRecovery {
		return // making progress here: not a deadlock
	}
	ivc.member = true // the suspicion chain runs through this packet
	m.Hops++
	r.sendSignal(cycle, t, ivc, m)
}

// enterRecovery switches the node into deadlock-recovery mode (§3.2.1)
// and tells every upstream neighbor to stop opening new wormholes onto
// this node's buffers.
func (r *Router) enterRecovery(cycle uint64) {
	if r.inRecovery {
		return
	}
	r.inRecovery = true
	r.recoveries++
	r.signalRecovery(link.NACKRecoveryOn)
	r.emit(trace.RecoveryBegin, cycle, -1, -1, 0, 0, 0)
}

// signalRecovery raises or lowers the recovery handshake on every
// router-router input channel.
func (r *Router) signalRecovery(kind link.NACKKind) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p == topology.Local || r.in[p] == nil {
			continue
		}
		r.in[p].rx.SendNACK(0, kind)
	}
}

// recoveryStep performs one cycle of recovery-mode buffer management:
// every blocked VC on a router-router port parks up to NACKWindow flits
// from its transmission buffer into the (idle) retransmission shifter,
// freeing slots that let the preceding node advance; the parked flits are
// sent onward as soon as downstream credits appear (Fig. 10). VA-blocked
// packets are absorbed the same way — the Fig. 11 worst case, where
// partially transferred messages must be soaked up before anything can
// move. Parking stops at packet boundaries so a trailing next packet
// never enters a parked queue. Local (PE) input VCs never park: freeing
// them would only admit new traffic into the recovery region, which the
// paper forbids. Recovery ends when every parked queue has drained and
// no VC is starved.
func (r *Router) recoveryStep(cycle uint64) {
	done := true
	for _, ivc := range r.flatVCs {
		if ivc == nil || ivc.state == vcIdle {
			continue
		}
		starved := true // a VA-blocked packet cannot move by definition
		if ivc.state == vcActive {
			if ivc.outVC < 0 || ivc.outVC >= r.cfg.VCs || !ivc.outPort.Valid() || r.out[ivc.outPort] == nil {
				continue
			}
			starved = r.out[ivc.outPort].tx.Credits(ivc.outVC) == 0
		}
		if room := link.NACKWindow - len(ivc.queued()); ivc.port != topology.Local && room > 0 && starved && ivc.buf.Len() > 0 {
			// Park into the free shifter slots; each parked flit frees a
			// credited buffer slot for the preceding node. Using the full
			// depth every round is what realises the Eq. (1) capacity
			// B = T + R per virtual channel.
			if l := ivc.buf.Len(); l < room {
				room = l
			}
			r.fitPending(ivc)
			for j := 0; j < room; j++ {
				f, _ := ivc.buf.Pop()
				ivc.park(f)
				r.buffered--
				r.parked++
				r.in[ivc.port].rx.ReturnCredit(ivc.idx)
				r.cfg.Events.BufReads++
				r.cfg.Events.RetransWrites++
				r.emit(trace.FlitParked, cycle, int8(ivc.port), int8(ivc.idx), uint64(f.PID), f.Seq, 0)
			}
		}
		if len(ivc.queued()) > 0 && ivc.state == vcActive && starved {
			done = false
		}
		if ivc.state == vcActive && starved && ivc.buf.Len() > 0 && ivc.port != topology.Local {
			done = false
		}
	}
	if !done {
		r.doneStreak = 0
		return
	}
	r.doneStreak++
	if r.doneStreak >= exitHysteresis {
		r.doneStreak = 0
		r.inRecovery = false
		r.signalRecovery(link.NACKRecoveryOff)
		r.emit(trace.RecoveryEnd, cycle, -1, -1, 0, 0, 0)
		// Blocked clocks are NOT reset: a still-starved VC is still a
		// deadlock member and must keep its standing (both for prompt
		// re-probing and for the new-packet gate above). Probe timers
		// clear so a persisting wedge is re-detected without delay.
		for _, ivc := range r.flatVCs {
			if ivc != nil {
				ivc.probeOutstanding = false
			}
		}
	}
}

// pruneProbeSeen forgets stale probe records (Rule 3 validity window).
func (r *Router) pruneProbeSeen(cycle uint64) {
	if cycle%probeSeenWindow != 0 || len(r.probeSeen) == 0 {
		return
	}
	r.probeSeen = slices.DeleteFunc(r.probeSeen, func(p probeRecord) bool { return cycle-p.at > probeSeenWindow })
}
