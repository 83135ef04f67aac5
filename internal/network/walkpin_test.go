package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
)

// walkPins holds the first eight bytes of the SHA-256 of the JSON Results,
// Traces cleared, of each walkPinConfigs entry at seeds 1 and 2. The
// dense walk's own pins, recorded at commit 26445a9 under kernel.Naive —
// the last commit whose naive kernel scanned every (port, VC) pair with a
// dense (rr+j)%n probe in place of the mask walk — covered the whole
// Results; these were derived at the parent of per-PE packet ids, where
// those pins still held, by clearing the one field keyed by packet id. A
// packet id names a different packet since, and nothing else moved. They
// are that walk's last word; do not regenerate them. The one exception is
// "e2e", re-taken when E2E hops began correcting single-bit header errors
// instead of NACKing them (DESIGN.md §3): a change of protocol, not of
// the walk, and both schedules give the new digests.
var walkPins = map[string][2]string{
	"xy-hbh-clean":      {"c13ccc788322b2b7", "e394a4e1312a6586"},
	"faults-heavy":      {"3fcd28918a83bcfe", "138256d4a69e6106"},
	"oddeven-recovery":  {"494a9c68c2eea448", "ca5bade6f787b888"},
	"e2e":               {"2b855830b069b2e9", "9b1130c26d3b29e2"},
	"fec-retransbuf":    {"dbc9c68cdd58b642", "de1d9713d83fa967"},
	"depth1":            {"71b0381886b63fce", "6244cc3f8e57f411"},
	"depth4":            {"11e56bf699d9fcc2", "efbe3ee8ee427162"},
	"vcs1":              {"73cacd9674e1f1ec", "2ba97b595d9225b2"},
	"vcs8":              {"a1d89ca861112af0", "70f248dd3880d35c"},
	"vcs12":             {"ac70cb03f9c13d7d", "d90957656195df4d"},
	"deadlock-recovery": {"fe4b8962420d7666", "2e96cf45688d6314"},
	"mortality":         {"923ee48cd9b0573f", "483377892bbf1676"},
}

type walkPin struct {
	name string
	cfg  Config
}

// walkPinConfigs are the configurations the pins cover: each allocator
// path the dense walk had an arm in (VA, SA, Rule 1, quiescence) under
// clean traffic, replay, logic upsets, both pipeline depth edges, the
// VC-count edges (one VC, the most a mask word holds), a single-VC
// adaptive burst that deadlocks and recovers (403 probes, 45 recoveries
// at seed 2) and a mid-run link death.
func walkPinConfigs(seed uint64) []walkPin {
	with := func(cfg Config, edit func(*Config)) Config {
		edit(&cfg)
		return cfg
	}
	clean := diffConfig(routing.XY, link.HBH, 0, seed)
	return []walkPin{
		{"xy-hbh-clean", clean},
		{"faults-heavy", with(clean, func(c *Config) {
			c.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
		})},
		{"oddeven-recovery", with(diffConfig(routing.OddEven, link.HBH, 0, seed), func(c *Config) {
			c.InjectionRate = 0.30
			c.Faults.RT, c.Faults.VA, c.Faults.SA = 5e-4, 5e-4, 5e-4
		})},
		{"e2e", diffConfig(routing.XY, link.E2E, 1e-2, seed)},
		{"fec-retransbuf", with(diffConfig(routing.XY, link.FEC, 0, seed), func(c *Config) {
			c.Faults.RetransBuf = 1e-2
		})},
		{"depth1", with(clean, func(c *Config) { c.PipelineDepth = 1 })},
		{"depth4", with(clean, func(c *Config) { c.PipelineDepth = 4 })},
		{"vcs1", with(clean, func(c *Config) { c.VCs = 1 })},
		{"vcs8", with(clean, func(c *Config) { c.VCs = 8 })},
		{"vcs12", with(clean, func(c *Config) { c.VCs = 12 })},
		{"deadlock-recovery", with(deadlockProneConfig(), func(c *Config) { c.Seed = seed })},
		{"mortality", with(diffConfig(routing.FaultAdaptive, link.HBH, 0, seed), func(c *Config) {
			c.Faults.Mortality.Links = []fault.LinkDeath{{From: 5, Dir: topology.East, Cycle: 300}}
		})},
	}
}

// TestWalkPinnedAtDenseParent holds the one allocator walk to what the
// dense walk it replaced produced, under both schedules. With the exact
// vc-masks law and TestRotatedWalkIsDenseProbeOrder (router) this stands
// where the dense code stood as the oracle.
func TestWalkPinnedAtDenseParent(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		for _, p := range walkPinConfigs(seed) {
			for _, k := range []schedule{naive, event} {
				t.Run(fmt.Sprintf("%s/seed%d/%v", p.name, seed, k), func(t *testing.T) {
					t.Parallel()
					res := k.build(p.cfg).Run()
					res.Traces = nil
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(js)
					if got, want := hex.EncodeToString(sum[:8]), walkPins[p.name][seed-1]; got != want {
						t.Errorf("Results digest %s, the dense walk's pin is %s", got, want)
					}
				})
			}
		}
	}
}
