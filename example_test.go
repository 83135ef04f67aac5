package ftnoc_test

import (
	"fmt"
	"log"
	"os"

	"ftnoc"
)

// The paper's 8×8 platform under transient link errors.
func ExampleRun() {
	cfg := ftnoc.NewConfig() // the paper's 8x8 platform (§2.2)
	cfg.Faults.Link = 1e-3   // transient link errors per flit traversal
	res := ftnoc.Run(cfg)
	fmt.Printf("latency %.1f cycles, %.3f nJ/msg, %d errors corrected\n",
		res.AvgLatency, ftnoc.EnergyPerMessageNJ(res),
		res.Counters.Corrected[ftnoc.LinkError])
}

// An event stream, packet journeys and sampled gauges from one run.
func ExampleNewNDJSONTrace() {
	cfg := ftnoc.NewConfig()
	cfg.Faults.Link = 1e-3

	events, err := os.Create("events.ndjson")
	if err != nil {
		log.Fatal(err)
	}
	nd := ftnoc.NewNDJSONTrace(events) // one JSON object per line
	cfg.TraceSink = nd                 // or TeeTrace / FilterTrace*
	cfg.TracePIDs = []uint64{42}       // human-readable journeys too

	metrics, err := os.Create("metrics.ndjson")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Metrics = ftnoc.NewMetrics(metrics, 100) // sample gauges every 100 cycles

	res := ftnoc.Run(cfg)
	nd.Close()
	cfg.Metrics.Close()
	fmt.Println(res.Delivered, "messages delivered")
}

// A run audited by the invariant checker.
func ExampleNewInvariantChecker() {
	cfg := ftnoc.NewConfig()
	chk := ftnoc.NewInvariantChecker(ftnoc.InvariantConfig{})
	cfg.Invariants = chk
	ftnoc.Run(cfg)
	if err := chk.Err(); err != nil {
		for _, v := range chk.Violations() { // the first violations
			fmt.Println(v)
		}
	}
}
