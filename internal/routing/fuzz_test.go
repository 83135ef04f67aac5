package routing

import "testing"

// FuzzParse holds the routing-name parser to: no panics; accepted names
// map to a known algorithm; and the algorithm's String form parses back
// to the same algorithm (the CLI prints names it must itself accept).
func FuzzParse(f *testing.F) {
	for _, s := range []string{"xy", "DT", "adaptive", "ad", "west-first", "WestFirst", "odd-even", "oddeven", "", "bogus",
		"fault-adaptive", "faultadaptive", "FA", "updown", "up-down"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := Parse(s)
		if err != nil {
			return
		}
		switch a {
		case XY, MinimalAdaptive, WestFirst, OddEven, FaultAdaptive:
		default:
			t.Fatalf("Parse(%q) produced unknown algorithm %d", s, a)
		}
		back, err := Parse(a.String())
		if err != nil || back != a {
			t.Fatalf("String form %q of Parse(%q) does not round-trip: %v / %v", a, s, back, err)
		}
	})
}
