package experiments

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docTables anchors each figure table of EXPERIMENTS.md: the first
// markdown table after a line starting with prefix holds figure id.
var docTables = []struct{ prefix, id string }{
	{"## Fig. 5 ", "Fig5"},
	{"## Fig. 6 ", "Fig6"},
	{"## Fig. 7 ", "Fig7"},
	{"Transmission buffers (Fig. 8)", "Fig8"},
	{"Retransmission buffers (Fig. 9)", "Fig9"},
	{"## Fig. 13(a)", "Fig13a"},
	{"## Fig. 13(b)", "Fig13b"},
	{"## Table 1 ", "Table1"},
}

// readDocTables returns every anchored table's rows (header first,
// separator dropped), each row split into trimmed cells.
func readDocTables(t *testing.T, path string) map[string][][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := map[string][][]string{}
	id := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, a := range docTables {
			if strings.HasPrefix(line, a.prefix) {
				id = a.id
			}
		}
		if id == "" {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(tables[id]) > 0 {
				id = "" // table ended: later tables are not this figure's
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		tables[id] = append(tables[id], cells)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}

var docNumber = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

// sameAtPrecision reports whether v, rounded to the digits printed in
// cell, reads as cell.
func sameAtPrecision(cell string, v float64) bool {
	digits := 0
	if i := strings.IndexByte(cell, '.'); i >= 0 {
		digits = len(cell) - i - 1
	}
	return strconv.FormatFloat(v, 'f', digits, 64) == cell
}

// TestExperimentsDocMatchesGenerators keeps EXPERIMENTS.md's measured
// tables true: every cell must equal the Quick-scale generator output at
// the cell's printed precision.
func TestExperimentsDocMatchesGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at quick scale")
	}
	tables := readDocTables(t, "../../EXPERIMENTS.md")

	figs := map[string]Figure{"Fig5": Fig5(Quick)}
	figs["Fig6"], figs["Fig7"] = Fig6And7(Quick)
	figs["Fig8"], figs["Fig9"] = Fig8And9(Quick)
	figs["Fig13a"], figs["Fig13b"] = Fig13(Quick)

	for id, fig := range figs {
		rows := tables[id]
		if len(rows) < 2 {
			t.Errorf("%s: no table in EXPERIMENTS.md", id)
			continue
		}
		header := rows[0]
		for _, row := range rows[1:] {
			x, err := strconv.ParseFloat(row[0], 64)
			if err != nil {
				t.Errorf("%s: x cell %q: %v", id, row[0], err)
				continue
			}
			for j, cell := range row[1:] {
				series := header[j+1]
				v := value(fig, x, series)
				if !sameAtPrecision(cell, v) {
					t.Errorf("%s %s at %g: EXPERIMENTS.md says %s, generator gives %g", id, series, x, cell, v)
				}
			}
		}
	}

	// Table 1: each power/area cell lists the value, then (for the AC
	// row) its percentage overhead.
	rows := tables["Table1"]
	gen := Table1()
	if len(rows) != len(gen)+1 {
		t.Fatalf("Table1: %d rows in EXPERIMENTS.md, generator gives %d", len(rows)-1, len(gen))
	}
	for i, r := range gen {
		want := [][]float64{{r.PowerMW}, {r.AreaMM2}}
		if r.PowerPct != 0 {
			want = [][]float64{{r.PowerMW, r.PowerPct}, {r.AreaMM2, r.AreaPct}}
		}
		for c, cell := range rows[i+1][1:] {
			nums := docNumber.FindAllString(cell, -1)
			if len(nums) != len(want[c]) {
				t.Errorf("Table1 row %d cell %q: want %d numbers", i, cell, len(want[c]))
				continue
			}
			for k, n := range nums {
				if !sameAtPrecision(n, want[c][k]) {
					t.Errorf("Table1 row %d: EXPERIMENTS.md says %s, generator gives %g", i, n, want[c][k])
				}
			}
		}
	}
}
