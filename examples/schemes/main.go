// Protection-scheme comparison: reproduces the Fig. 5 experiment shape on
// a small platform — hop-by-hop retransmission (the paper's scheme)
// against the end-to-end and FEC-only baselines across link error rates —
// and prints why E2E also needs much larger retransmission buffers.
package main

import (
	"fmt"

	"ftnoc"
)

func main() {
	fmt.Println("== link-error handling schemes vs error rate (Fig. 5 shape) ==")
	fmt.Printf("%-12s %10s %10s %10s\n", "error_rate", "HBH", "FEC", "E2E")

	schemes := []struct {
		name string
		prot ftnoc.Protection
	}{
		{"HBH", ftnoc.HBH}, {"FEC", ftnoc.FEC}, {"E2E", ftnoc.E2E},
	}

	bufMax := map[string]int{}
	for _, rate := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		lat := map[string]float64{}
		for _, s := range schemes {
			cfg := ftnoc.NewConfig()
			cfg.Width, cfg.Height = 4, 4
			cfg.Protection = s.prot
			cfg.Faults.Link = rate
			cfg.InjectionRate = 0.15
			cfg.WarmupMessages = 400
			cfg.TotalMessages = 2_400
			cfg.MaxCycles = 300_000
			res := ftnoc.Run(cfg)
			lat[s.name] = res.AvgLatency
			bufMax[s.name] = max(bufMax[s.name], res.E2EBufMax)
		}
		fmt.Printf("%-12.0e %10.1f %10.1f %10.1f\n", rate, lat["HBH"], lat["FEC"], lat["E2E"])
	}

	fmt.Println("\nHBH stays flat; FEC rises once double errors force end-to-end")
	fmt.Println("retransmissions; E2E pays a round trip for any error at all.")
	fmt.Printf("\nbuffer cost: HBH retains 3 flits per VC; E2E sources retained up to %d whole packets\n", bufMax["E2E"])
	fmt.Println("awaiting acknowledgement — the worst-case round-trip sizing the paper warns about.")
}
