package link

import (
	"os"
	"strings"
	"testing"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
)

var actionNames = [...]string{"", "accept", "correct", "NACK", "pass unchecked", "pass corrupt", "drop", "condemn"}

func (a Action) String() string { return actionNames[a] }

// cell names one entry of the protection policy table.
type cell struct {
	p Protection
	k Kind
	s Site
	o ecc.Outcome
}

// policyRules are the clauses of DESIGN.md §3's description of the
// policy table, each with the cells it decides. The first rule that
// covers a cell is the one that decides it.
var policyRules = []struct {
	clause string
	covers func(c cell) bool
	want   Action
}{
	{"E2E leaves data undecoded until the destination, which condemns any error",
		func(c cell) bool { return c.p == E2E && c.k == KindData && c.s == SiteHop }, PassUnchecked},
	{"E2E leaves data undecoded until the destination, which condemns any error",
		func(c cell) bool { return c.p == E2E && c.k == KindData && c.o != ecc.OK }, Condemn},
	{"The destination decodes data only",
		func(c cell) bool { return c.s == SiteDest && c.k != KindData }, PassUnchecked},
	{"accepts a clean flit",
		func(c cell) bool { return c.o == ecc.OK }, Accept},
	{"so an E2E hop corrects what it decodes",
		func(c cell) bool { return c.p == E2E && c.k == KindHead && c.o == ecc.Corrected }, Correct},
	{"Every hop corrects a single error",
		func(c cell) bool { return c.s == SiteHop && c.o == ecc.Corrected }, Correct},
	{"drops a control flit's double error",
		func(c cell) bool { return c.k == KindControl }, Drop},
	{"NACKs a header's",
		func(c cell) bool { return c.k == KindHead }, Retransmit},
	{"HBH NACKs a data flit's double error",
		func(c cell) bool { return c.p == HBH && c.s == SiteHop }, Retransmit},
	{"FEC passes it on",
		func(c cell) bool { return c.p == FEC && c.s == SiteHop }, PassCorrupt},
	{"under HBH and FEC corrects a single error and condemns a double one",
		func(c cell) bool { return c.o == ecc.Corrected }, Correct},
	{"under HBH and FEC corrects a single error and condemns a double one",
		func(c cell) bool { return true }, Condemn},
}

// designSection3 returns DESIGN.md's §3 with its line breaks folded into
// spaces, so a clause can be found wherever the prose wraps.
func designSection3(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	start, end := strings.Index(s, "\n## 3."), strings.Index(s, "\n## 4.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3")
	}
	return strings.Join(strings.Fields(s[start:end]), " ")
}

// TestPolicyTableCells walks every (scheme, kind, site, outcome) cell of
// the protection policy table and every retain bit, and checks each
// against the DESIGN.md §3 clause that decides it. Every clause must
// decide some cell and still be in DESIGN.md, so the table, the rules
// here and the prose cannot drift apart. It also holds the shape the
// receiver and the PE rely on: a site decodes a kind for every outcome
// or for none, a clean decode is accepted, a destination only keeps or
// condemns, a hop never condemns, and a control flit, which has no VC
// and no shifter copy, is never NACKed.
func TestPolicyTableCells(t *testing.T) {
	design := designSection3(t)
	used := make([]int, len(policyRules))
	for _, p := range []Protection{HBH, E2E, FEC} {
		for k := range numKinds {
			for s := range numSites {
				decoded := 0
				for o := ecc.OK; o <= ecc.Detected; o++ {
					i := 0
					for !policyRules[i].covers(cell{p, k, s, o}) {
						i++
					}
					used[i]++
					got, want := p.Act(k, s, o), policyRules[i].want
					if got != want {
						t.Errorf("%v kind %d site %d %v: table says %v, DESIGN.md §3 %q says %v",
							p, k, s, o, got, policyRules[i].clause, want)
					}
					switch {
					case got != PassUnchecked:
						decoded++
					case p.Decodes(k, s):
						t.Errorf("%v kind %d site %d decodes but passes %v unchecked", p, k, s, o)
					}
					if s == SiteDest && got != Accept && got != Correct && got != PassUnchecked && got != Condemn ||
						s == SiteHop && got == Condemn || k == KindControl && got == Retransmit {
						t.Errorf("%v kind %d site %d %v: %v cannot be taken there", p, k, s, o, got)
					}
				}
				if decoded != 0 && decoded != int(ecc.Detected) {
					t.Errorf("%v kind %d site %d decodes %d of %d outcomes", p, k, s, decoded, ecc.Detected)
				}
			}
		}
		if got, want := p.Retains(), p != HBH; got != want {
			t.Errorf("%v retains = %v; DESIGN.md §3: %q", p, got, "Under E2E/FEC a source keeps a copy of each packet")
		}
	}
	if !strings.Contains(design, "Under E2E/FEC a source keeps a copy of each packet") {
		t.Error("DESIGN.md §3 no longer says which schemes retain copies")
	}
	for i, r := range policyRules {
		if used[i] == 0 {
			t.Errorf("rule %q decides no cell", r.clause)
		}
		if !strings.Contains(design, r.clause) {
			t.Errorf("DESIGN.md §3 no longer says %q", r.clause)
		}
	}
}

func TestKindOf(t *testing.T) {
	want := map[flit.Type]Kind{
		flit.Head: KindHead, flit.Body: KindData, flit.Tail: KindData,
		flit.Probe: KindControl, flit.Activation: KindControl, flit.NACK: KindControl, 0: KindControl,
	}
	for ty, k := range want {
		if got := KindOf(ty); got != k {
			t.Errorf("KindOf(%v) = %d, want %d", ty, got, k)
		}
	}
}
