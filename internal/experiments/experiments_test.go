package experiments

import (
	"strings"
	"testing"
)

func value(f Figure, x float64, series string) float64 {
	for _, r := range f.Rows {
		if r.X == x {
			return r.Values[series]
		}
	}
	return -1
}

func checkShape(t *testing.T, f Figure, xs int) {
	t.Helper()
	if len(f.Rows) != xs {
		t.Fatalf("%s: %d rows, want %d", f.ID, len(f.Rows), xs)
	}
	for _, r := range f.Rows {
		for _, s := range f.Series {
			if _, ok := r.Values[s]; !ok {
				t.Fatalf("%s: row %v missing series %s", f.ID, r.X, s)
			}
		}
	}
	var b strings.Builder
	f.Fprint(&b)
	out := b.String()
	if !strings.Contains(out, f.ID) || !strings.Contains(out, f.XLabel) {
		t.Fatalf("%s: Fprint output malformed:\n%s", f.ID, out)
	}
}

// One tiny-scale pass over the Fig. 5 generator: structure plus the
// paper's headline ordering at the top error rate.
func TestFig5Generator(t *testing.T) {
	fig := Fig5(Tiny)
	checkShape(t, fig, len(ErrorRates))
	hbh := value(fig, 1e-1, "HBH")
	e2e := value(fig, 1e-1, "E2E")
	fec := value(fig, 1e-1, "FEC")
	if !(hbh <= fec && fec < e2e) {
		t.Fatalf("Fig5 ordering violated at 0.1: HBH=%.1f FEC=%.1f E2E=%.1f", hbh, fec, e2e)
	}
	// HBH must stay essentially flat across four decades.
	lo, hi := value(fig, 1e-5, "HBH"), value(fig, 1e-1, "HBH")
	if hi > lo*1.2 {
		t.Fatalf("HBH not flat: %.2f -> %.2f", lo, hi)
	}
}

func TestFig6And7Generators(t *testing.T) {
	f6, f7 := Fig6And7(Tiny)
	checkShape(t, f6, len(ErrorRates))
	checkShape(t, f7, len(ErrorRates))
	for _, s := range f6.Series {
		lo, hi := value(f6, 1e-5, s), value(f6, 1e-1, s)
		if hi > lo*1.3 {
			t.Errorf("Fig6 %s latency not near-flat: %.2f -> %.2f", s, lo, hi)
		}
	}
	for _, s := range f7.Series {
		e := value(f7, 1e-1, s)
		if e <= 0 || e > 2 {
			t.Errorf("Fig7 %s energy %.3f nJ implausible", s, e)
		}
	}
}

func TestFig8And9Generators(t *testing.T) {
	f8, f9 := Fig8And9(Tiny)
	checkShape(t, f8, len(InjectionRates))
	checkShape(t, f9, len(InjectionRates))
	// Fig 8: utilization grows from light load to saturation.
	for _, s := range f8.Series {
		if !(value(f8, 0.1, s) < value(f8, 0.9, s)) {
			t.Errorf("Fig8 %s not increasing: %.3f vs %.3f", s, value(f8, 0.1, s), value(f8, 0.9, s))
		}
	}
	// Fig 9: retransmission buffers stay well below transmission buffers
	// at saturation (the paper's under-utilization claim).
	for _, s := range f9.Series {
		if value(f9, 0.9, s) >= value(f8, 0.9, s) {
			t.Errorf("Fig9 %s (%.3f) not below Fig8 (%.3f) at 0.9", s, value(f9, 0.9, s), value(f8, 0.9, s))
		}
	}
}

func TestFig13Generators(t *testing.T) {
	fa, fb := Fig13(Tiny)
	checkShape(t, fa, len(LogicErrorRates))
	// Corrected counts grow with the rate and keep the paper's ordering
	// at the top rate.
	for _, s := range fa.Series {
		if !(value(fa, 1e-4, s) <= value(fa, 1e-2, s)) {
			t.Errorf("Fig13a %s not increasing with rate", s)
		}
	}
	if !(value(fa, 1e-2, "SA-Logic") > value(fa, 1e-2, "RT-Logic")) {
		t.Error("Fig13a: SA corrections not above RT")
	}
	if !(value(fa, 1e-2, "LINK-HBH") > value(fa, 1e-2, "RT-Logic")) {
		t.Error("Fig13a: LINK corrections not above RT")
	}
	checkShape(t, fb, len(LogicErrorRates))
	for _, s := range fb.Series {
		if e := value(fb, 1e-2, s); e <= 0 || e > 2 {
			t.Errorf("Fig13b %s energy %.3f implausible", s, e)
		}
	}
}

func TestTable1Values(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].PowerMW != 119.55 {
		t.Errorf("router power %.2f", rows[0].PowerMW)
	}
	if rows[1].PowerPct < 1.68 || rows[1].PowerPct > 1.70 {
		t.Errorf("AC power pct %.3f", rows[1].PowerPct)
	}
	var b strings.Builder
	FprintTable1(&b, rows)
	if !strings.Contains(b.String(), "Allocation Comparator") {
		t.Error("Table 1 print malformed")
	}
}

func TestRenderFormats(t *testing.T) {
	fig := Figure{
		ID: "FigX", Title: "t", XLabel: "x", Series: []string{"A", "B"},
		Rows: []Row{{X: 0.5, Values: map[string]float64{"A": 1, "B": 2}}},
	}
	var csv strings.Builder
	fig.Render(&csv, CSV)
	if got := csv.String(); got != "x,A,B\n0.5,1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
	var md strings.Builder
	fig.Render(&md, Markdown)
	if !strings.Contains(md.String(), "| x | A | B |") || !strings.Contains(md.String(), "| 0.5 | 1 | 2 |") {
		t.Fatalf("markdown = %q", md.String())
	}
	var txt strings.Builder
	fig.Render(&txt, Text)
	if !strings.Contains(txt.String(), "FigX") {
		t.Fatal("text render missing id")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"": Text, "text": Text, "csv": CSV, "md": Markdown, "markdown": Markdown} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v,%v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}
