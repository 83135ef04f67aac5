package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// renderedTable produces a real two-point NDJSON table for the
// truncation test.
func renderedTable(t *testing.T) (ndjson []byte, rows int) {
	t.Helper()
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          1,
		Workers:        1,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var nb bytes.Buffer
	if err := report.WriteNDJSON(&nb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), len(report.Points)
}

// TestReadNDJSONTruncated covers partial row streams — the shape a
// crashed producer (dead worker, killed daemon) leaves behind. A final
// line missing its newline must error cleanly even when the fragment
// happens to parse as JSON, because there is no way to know the row was
// complete.
func TestReadNDJSONTruncated(t *testing.T) {
	table, n := renderedTable(t)

	full, err := ReadNDJSON(bytes.NewReader(table))
	if err != nil {
		t.Fatalf("intact table: %v", err)
	}
	if len(full) != n {
		t.Fatalf("intact table: %d rows, want %d", len(full), n)
	}

	// Chop the trailing newline only: the last row is byte-complete,
	// valid JSON, and still must be rejected.
	noNewline := bytes.TrimSuffix(table, []byte{'\n'})
	if _, err := ReadNDJSON(bytes.NewReader(noNewline)); err == nil {
		t.Fatal("complete JSON row without terminating newline was accepted")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got: %v", err)
	}

	// Chop mid-row: both the missing newline and the broken JSON make
	// this invalid; the reader must say truncated, not panic or accept.
	cut := table[:len(table)-len(table)/4]
	if cut[len(cut)-1] == '\n' {
		cut = cut[:len(cut)-1]
	}
	if _, err := ReadNDJSON(bytes.NewReader(cut)); err == nil {
		t.Fatal("mid-row truncation was accepted")
	}

	// A clean prefix of whole lines is a valid (shorter) table: partial
	// results from an aborted run stay readable.
	firstLine := bytes.IndexByte(table, '\n') + 1
	prefix, err := ReadNDJSON(bytes.NewReader(table[:firstLine]))
	if err != nil {
		t.Fatalf("whole-line prefix: %v", err)
	}
	if len(prefix) != 1 {
		t.Fatalf("whole-line prefix: %d rows, want 1", len(prefix))
	}

	if rows, err := ReadNDJSON(bytes.NewReader(nil)); err != nil || len(rows) != 0 {
		t.Fatalf("empty input: rows=%d err=%v", len(rows), err)
	}
}
