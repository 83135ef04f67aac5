// Fault tolerance walkthrough: exercises each protection mechanism of the
// paper in isolation — the HBH link scheme (§3.1), the Allocation
// Comparator for RT/VA/SA logic upsets (§4), and the unprotected ablation
// — and shows what each one catches.
package main

import (
	"fmt"

	"ftnoc"
)

func run(name string, mutate func(*ftnoc.Config)) ftnoc.Results {
	cfg := ftnoc.NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 500
	cfg.TotalMessages = 4_000
	mutate(&cfg)
	res := ftnoc.Run(cfg)
	fmt.Printf("\n-- %s --\n", name)
	fmt.Printf("delivered %d messages, avg latency %.2f cycles, %.4f nJ/msg\n",
		res.Delivered, res.AvgLatency, ftnoc.EnergyPerMessageNJ(res))
	return res
}

func main() {
	fmt.Println("== fault-tolerance mechanisms, one at a time ==")

	// 1. Link soft errors, handled by SEC/DED + HBH retransmission.
	res := run("link errors @ 1% per flit-hop (HBH)", func(c *ftnoc.Config) {
		c.Faults.Link = 0.01
	})
	fmt.Printf("   corrected %d of %d injected link errors; %d NACK retransmission rounds\n",
		res.Counters.Corrected[ftnoc.LinkError], res.Counters.Injected[ftnoc.LinkError],
		res.Counters.NACKs)
	fmt.Printf("   corrupted deliveries: %d (must be 0)\n", res.CorruptedPackets)

	// 2. Routing-unit upsets, caught by the VA state info locally or by
	// the neighbor's consistency check (§4.2).
	res = run("routing-logic upsets @ 1e-3 (VA state + neighbor check)", func(c *ftnoc.Config) {
		c.Faults.RT = 1e-3
	})
	fmt.Printf("   corrected %d RT misdirections; stray flits: %d (must be 0)\n",
		res.Counters.Corrected[ftnoc.RTLogic], res.StrayFlits)

	// 3. Allocator upsets, caught by the Allocation Comparator (§4.1/4.3).
	res = run("VA+SA upsets @ 1e-3 (Allocation Comparator)", func(c *ftnoc.Config) {
		c.Faults.VA = 1e-3
		c.Faults.SA = 1e-3
	})
	fmt.Printf("   AC corrected: VA %d/%d, SA %d/%d\n",
		res.Counters.Corrected[ftnoc.VALogic], res.Counters.Injected[ftnoc.VALogic],
		res.Counters.Corrected[ftnoc.SALogic], res.Counters.Injected[ftnoc.SALogic])

	// 4. Ablation: allocator upsets with the AC disabled — VA alone, then
	// the VA+SA rate the comparator handled above.
	for _, a := range []struct {
		name   string
		faults func(*ftnoc.Config)
	}{
		{"VA upsets @ 5e-3 with the AC DISABLED (ablation)", func(c *ftnoc.Config) { c.Faults.VA = 5e-3 }},
		{"VA+SA upsets @ 1e-3 with the AC DISABLED (ablation)", func(c *ftnoc.Config) { c.Faults.VA, c.Faults.SA = 1e-3, 1e-3 }},
	} {
		res = run(a.name, func(c *ftnoc.Config) {
			a.faults(c)
			c.ACEnabled = false
			c.TotalMessages = 2_000
			c.StallCycles = 30_000
			c.MaxCycles = 150_000
		})
		fmt.Printf("   damage: %d wormhole violations, %d stray flits, %d sink anomalies, stalled=%v\n",
			res.WormholeViolations, res.StrayFlits, res.SinkAnomalies, res.Stalled)
	}
	fmt.Println("\nThe AC unit costs, per Table 1:")
	fmt.Printf("   +%.2f mW power and +%.4f mm2 area on a %.2f mW / %.4f mm2 router\n",
		ftnoc.RouterPowerMW(5, 4, 4, 0, true)-ftnoc.RouterPowerMW(5, 4, 4, 0, false),
		ftnoc.RouterAreaMM2(5, 4, 4, 0, true)-ftnoc.RouterAreaMM2(5, 4, 4, 0, false),
		ftnoc.RouterPowerMW(5, 4, 4, 0, false), ftnoc.RouterAreaMM2(5, 4, 4, 0, false))
}
