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

// walkPins holds the first eight bytes of the SHA-256 of the JSON Results
// of each walkPinConfigs entry at seeds 1 and 2, recorded at commit
// 26445a9 under kernel.Naive — the last commit whose naive kernel scanned
// every (port, VC) pair with a dense (rr+j)%n probe in place of the mask
// walk. They are that walk's last word; do not regenerate them.
var walkPins = map[string][2]string{
	"xy-hbh-clean":      {"ded781d895673dbe", "e585d7273899d380"},
	"faults-heavy":      {"d8d48b13abd31af2", "8d7b9a2ea691af6a"},
	"oddeven-recovery":  {"664944b58b8f6af3", "6f9c67d7a5431b69"},
	"e2e":               {"8be6b390ab0f1ecd", "cd35b74ea425c97f"},
	"fec-retransbuf":    {"f55d351d09655998", "e8a9bfcd96e6afa2"},
	"depth1":            {"5bc535a0dbb1d0db", "ba5096b23fe9c453"},
	"depth4":            {"e42c48fff2373462", "30a3189630f4f8b0"},
	"vcs1":              {"440b45d81c1cbd36", "48977a50fe058bf5"},
	"vcs8":              {"f70f0aadaa4bb2e8", "53b08cba7769536b"},
	"vcs12":             {"2b656ab67fd0399c", "e02cf16af62fe83a"},
	"deadlock-recovery": {"fe4b8962420d7666", "2e96cf45688d6314"},
	"mortality":         {"333fe64dc479b850", "377d79df10a33e95"},
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
					js, err := json.Marshal(k.build(p.cfg).Run())
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(js)
					if got, want := hex.EncodeToString(sum[:8]), walkPins[p.name][seed-1]; got != want {
						t.Errorf("Results digest %s, the dense walk at 26445a9 gave %s", got, want)
					}
				})
			}
		}
	}
}
