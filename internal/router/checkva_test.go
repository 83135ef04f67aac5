package router

import (
	"math/rand"
	"testing"

	"ftnoc/internal/ac"
	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
)

// tryVA hands the comparator one VA state entry — the one the fresh
// binding names — where it used to hand it the whole table. For random
// tables, random bindings (in and out of range, on attached and
// unattached ports, some rewriting their own entry) and every way
// corruptBinding damages one, the verdict must be the one the whole table
// gives.
func TestCheckVAOneEntryMatchesTable(t *testing.T) {
	const vcs = 4
	np := int(topology.NumPorts)
	topo := topology.New(topology.Mesh, 3, 3)
	verdicts := make(map[ac.Violation]int)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var k sim.Kernel
		var ev stats.Events
		ctr := fault.NewCounters()
		r := New(Config{
			ID: 4, Topo: topo, Route: routing.New(routing.XY, topo),
			VCs: vcs, BufDepth: 4, PipelineDepth: 3, ACEnabled: true,
			Events: &ev, Counters: ctr,
			VAFault: fault.NewLogicInjector(fault.VALogic, 1, sim.NewRNG(uint64(seed))),
		})
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			if rng.Intn(5) == 0 {
				continue // an unattached port: no table entries, and none to name
			}
			ch := link.NewChannel(&k, nil, false, &ev, ctr)
			r.AttachOutput(p, link.NewTransmitter(ch, vcs, 4, link.NACKWindow, &ev, ctr))
			for v := range r.out[p].vcs {
				if rng.Intn(2) == 0 {
					r.out[p].vcs[v] = outputVC{busy: true, inPort: topology.Port(rng.Intn(np)), inVC: rng.Intn(vcs)}
				}
			}
		}
		check := func(b ac.Binding, cands []topology.Port) {
			t.Helper()
			one := ac.CheckVA(b, cands, vcs, np, r.bindingAt(b.OutPort, b.OutVC))
			all := ac.CheckVA(b, cands, vcs, np, r.existingBindings())
			if one != all {
				t.Fatalf("seed %d: binding %+v candidates %v: %v over the named entry, %v over the table", seed, b, cands, one, all)
			}
			verdicts[all]++
		}
		for i := 0; i < 400; i++ {
			b := ac.Binding{
				InPort: topology.Port(rng.Intn(np)), InVC: rng.Intn(vcs),
				OutPort: topology.Port(rng.Intn(np + 2)), OutVC: rng.Intn(vcs+3) - 1,
			}
			if op := r.out[b.OutPort%topology.NumPorts]; op != nil && rng.Intn(4) == 0 {
				// The entry being rewritten: the binding's own input VC
				// already owns the output VC it names.
				b.OutPort %= topology.NumPorts
				b.OutVC = rng.Intn(vcs)
				op.vcs[b.OutVC] = outputVC{busy: true, inPort: b.InPort, inVC: b.InVC}
			}
			cands := []topology.Port{topology.Port(rng.Intn(np)), topology.Port(rng.Intn(np))}
			if rng.Intn(3) != 0 {
				cands = append(cands, b.OutPort)
			}
			check(b, cands)
			check(r.corruptBinding(b), cands)
		}
	}
	for _, v := range []ac.Violation{ac.None, ac.InvalidPort, ac.InvalidVC, ac.RouteDisagreement, ac.DuplicateAssignment} {
		if verdicts[v] == 0 {
			t.Errorf("no binding drew the verdict %v; the comparison is vacuous there", v)
		}
	}
}
