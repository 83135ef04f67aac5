package router

import (
	"testing"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// TestProbeCodecRoundTrip drives the probe word layout through its edge
// values: every field at zero, at its maximum, and at the sentinel
// values the protocol actually uses (AnyVC targets, maxProbeHops). The
// codec is load-bearing — a probe that decodes differently than it
// encoded misdirects deadlock recovery at another node.
func TestProbeCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		m    probeMsg
	}{
		{"zero", probeMsg{}},
		{"typical", probeMsg{Origin: 5, OriginPort: topology.East, OriginVC: 1, TargetVC: 2, Hops: 3}},
		{"any-vc-target", probeMsg{Origin: 12, OriginPort: topology.North, OriginVC: 0, TargetVC: AnyVC, Hops: 1}},
		{"max-origin", probeMsg{Origin: 0xffff, OriginPort: topology.West, OriginVC: 0xff, TargetVC: 0xff, Hops: maxProbeHops}},
		{"max-hops", probeMsg{Origin: 63, OriginPort: topology.South, OriginVC: 7, TargetVC: 0, Hops: maxProbeHops}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			word, check := encodeProbe(tc.m)
			if got := decodeProbe(word); got != tc.m {
				t.Fatalf("decode(encode(%+v)) = %+v", tc.m, got)
			}
			// Probes travel ECC-protected like any flit; the encoded check
			// bits must match a fresh encode of the word.
			if want := ecc.Encode(word); check != want {
				t.Fatalf("check bits %#x, want %#x", check, want)
			}
			// The dedup key must identify the origin triple and nothing else:
			// two probes from the same blocked input differing only in target
			// or hops are the same suspicion.
			other := tc.m
			other.TargetVC ^= 0x5
			other.Hops++
			if tc.m.key() != other.key() {
				t.Fatalf("key depends on non-origin fields: %+v vs %+v", tc.m.key(), other.key())
			}
		})
	}
}

// TestProbeFlitCarriesType pins probeFlit's wrapping: the control flit
// type is preserved, the word and check bits are encodeProbe's, and the
// payload round-trips through the flit word.
func TestProbeFlitCarriesType(t *testing.T) {
	m := probeMsg{Origin: 9, OriginPort: topology.South, OriginVC: 2, TargetVC: AnyVC, Hops: 4}
	word, check := encodeProbe(m)
	for _, ft := range []flit.Type{flit.Probe, flit.Activation} {
		f := probeFlit(ft, m)
		if f.Type != ft {
			t.Fatalf("flit type %v, want %v", f.Type, ft)
		}
		if f.Word != word || f.Check != check {
			t.Fatalf("probeFlit word/check %#x/%#x, want encodeProbe's %#x/%#x", f.Word, f.Check, word, check)
		}
		if got := decodeProbe(f.Word); got != m {
			t.Fatalf("payload mangled: %+v", got)
		}
	}
}

// TestPruneProbeSeenBoundaries pins the dedup-memory expiry contract:
// pruning runs only at probeSeenWindow boundaries, an entry exactly one
// window old survives (the Rule 3 validity window is inclusive), and
// anything older goes.
func TestPruneProbeSeenBoundaries(t *testing.T) {
	key := func(origin int) probeKey {
		return probeMsg{Origin: flit.NodeID(origin), OriginPort: topology.North, OriginVC: 1}.key()
	}
	boundary := uint64(6 * probeSeenWindow)
	cases := []struct {
		name     string
		cycle    uint64
		seen     uint64
		survives bool
	}{
		{"off-boundary-no-prune", boundary + 1, 1, true},
		{"exactly-one-window-old", boundary, boundary - probeSeenWindow, true},
		{"one-past-window", boundary, boundary - probeSeenWindow - 1, false},
		{"ancient", boundary, 1, false},
		{"fresh", boundary, boundary - 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Router{probeSeen: []probeRecord{{key(3), tc.seen}}}
			r.pruneProbeSeen(tc.cycle)
			if ok := r.probeAt(key(3)) >= 0; ok != tc.survives {
				t.Fatalf("entry seen at %d, pruned at %d: survived=%v, want %v",
					tc.seen, tc.cycle, ok, tc.survives)
			}
		})
	}
}
