package network

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ftnoc/internal/invariant"
	"ftnoc/internal/sim"
)

// FuzzReadConfig throws arbitrary documents at the configuration parser
// and holds it to three laws: it never panics; an accepted document
// re-serialises to a fixed point (write → read → write is
// byte-identical); and a document that additionally passes Validate can
// be simulated — briefly, with the invariant checker attached — without
// panicking or violating a structural invariant. The last law is what
// makes this a whole-stack fuzzer rather than a JSON round-trip check.
// Each simulated config is built twice, fresh and in one slab store kept
// across inputs, so that it inherits whatever shape the previous input
// left there; the two runs' Results must be byte-identical.
func FuzzReadConfig(f *testing.F) {
	seed := NewConfig()
	var buf bytes.Buffer
	if err := seed.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{}`)
	f.Add(`{"width":3,"height":3,"vcs":2}`)
	f.Add(`{"faults":{"link":0.001},"protection":2}`)
	// Hard faults are mortality timelines: a boot-time link death (cycle
	// 0), and on a mesh small enough to simulate, a link dead from boot
	// plus a router dying mid-run under up*/down* routing — routing
	// tables and the reconfiguration controller.
	f.Add(`{"faults":{"mortality":{"links":[{"from":5,"dir":2,"cycle":0}]}}}`)
	f.Add(`{"width":6,"height":6,"faults":{"mortality":{"links":[{"from":8,"dir":2,"cycle":0}]}}}`)
	f.Add(`{"width":6,"height":6,"routing":5,"faults":{"mortality":{"links":[{"from":8,"dir":2,"cycle":0}],"routers":[{"node":21,"cycle":10}]}}}`)
	f.Add(`{"injection_rate":1e999}`)
	f.Add(`{"width":-1}`)
	// Consecutive inputs that change mesh size, VCs and protection, so the
	// second builds in slabs shaped by the first.
	f.Add(`{"width":3,"height":5,"vcs":5,"protection":3,"faults":{"link":0.01}}`)
	f.Add(`{"width":6,"height":4,"vcs":2,"protection":2,"faults":{"link":0.01}}`)

	var slabs sim.Slabs

	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := ReadConfig(strings.NewReader(doc))
		if err != nil {
			return
		}

		var w1 bytes.Buffer
		if err := cfg.WriteJSON(&w1); err != nil {
			t.Fatalf("accepted config does not re-serialise: %v", err)
		}
		cfg2, err := ReadConfig(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := cfg2.WriteJSON(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write/read/write not a fixed point:\nfirst:  %s\nsecond: %s", w1.Bytes(), w2.Bytes())
		}

		if cfg.Validate() != nil {
			return
		}
		// Keep the simulated slice small and bounded so exploration stays
		// fast; these overrides cannot invalidate a valid config.
		if cfg.Width*cfg.Height > 36 || cfg.VCs > 8 || cfg.BufDepth > 32 || cfg.PacketSize > 32 {
			return
		}
		cfg.WarmupMessages = 0
		cfg.TotalMessages = 200
		cfg.MaxCycles = 50_000
		cfg.StallCycles = 10_000
		cfg.TracePIDs = nil
		var js [2][]byte
		for i, s := range []*sim.Slabs{nil, &slabs} {
			chk := invariant.New(invariant.Config{})
			cfg.Invariants = chk
			if js[i], err = json.Marshal(NewIn(s, cfg).Run()); err != nil {
				t.Fatal(err)
			}
			for _, v := range chk.Violations() {
				t.Errorf("invariant violation on fuzzed config: %v", v)
			}
		}
		if !bytes.Equal(js[0], js[1]) {
			t.Errorf("built in a slab store, Results differ from a fresh build's:\nstore: %s\nfresh: %s", js[1], js[0])
		}
		if t.Failed() {
			t.Fatalf("config: %+v", cfg)
		}
	})
}
