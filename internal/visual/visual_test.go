package visual

import (
	"strings"
	"testing"
)

func TestHeatmapDimensions(t *testing.T) {
	s := Heatmap(4, 3, 1, "test", func(x, y int) float64 { return float64(x) / 4 })
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // title + 3 rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
	for _, row := range lines[1:] {
		if len([]rune(row)) != 8 { // 4 cells, glyph+space each
			t.Fatalf("row %q has wrong width", row)
		}
	}
}

func TestHeatmapExtremes(t *testing.T) {
	s := Heatmap(2, 1, 1, "x", func(x, y int) float64 {
		if x == 0 {
			return 0
		}
		return 1
	})
	row := strings.Split(s, "\n")[1]
	cells := []rune(row)
	if cells[0] != '.' {
		t.Fatalf("zero cell = %q, want '.'", cells[0])
	}
	if cells[2] != '█' {
		t.Fatalf("full cell = %q, want full shade", cells[2])
	}
}

func TestHeatmapAutoScale(t *testing.T) {
	s := Heatmap(2, 1, 0, "x", func(x, y int) float64 { return float64(x) * 5 })
	if !strings.Contains(s, "=5") {
		t.Fatalf("auto-scale legend missing: %s", s)
	}
}

func TestHeatmapDegenerate(t *testing.T) {
	if Heatmap(0, 3, 1, "x", nil) != "" {
		t.Fatal("zero-width heatmap not empty")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	r := []rune(s)
	if len(r) != 3 {
		t.Fatalf("length %d", len(r))
	}
	if r[0] != '▁' || r[2] != '█' {
		t.Fatalf("extremes wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input not empty")
	}
	if Sparkline([]float64{0, 0}) == "" {
		t.Fatal("all-zero series should still render")
	}
}

// A heatmap whose every cell is zero must render all-empty glyphs and a
// sane legend (auto-scale falls back to 1 instead of dividing by zero).
func TestHeatmapAllZero(t *testing.T) {
	s := Heatmap(3, 2, 0, "z", func(x, y int) float64 { return 0 })
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "=1") {
		t.Fatalf("zero-max legend should fall back to scale 1: %q", lines[0])
	}
	for _, row := range lines[1:] {
		for _, c := range strings.ReplaceAll(row, " ", "") {
			if c != '.' {
				t.Fatalf("all-zero heatmap has non-empty cell %q in %q", c, row)
			}
		}
	}
}

// The degenerate 1x1 grid is still a valid floorplan.
func TestHeatmapOneByOne(t *testing.T) {
	s := Heatmap(1, 1, 1, "solo", func(x, y int) float64 { return 1 })
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if got := []rune(lines[1])[0]; got != '█' {
		t.Fatalf("1x1 full cell = %q, want full shade", got)
	}
	// Both degenerate axes must be rejected, not just width.
	if Heatmap(3, 0, 1, "x", nil) != "" {
		t.Fatal("zero-height heatmap not empty")
	}
	if Heatmap(-1, -1, 1, "x", nil) != "" {
		t.Fatal("negative dimensions not rejected")
	}
}

// A sparkline over an empty-but-allocated slice matches nil, and a
// single-point series renders one glyph.
func TestSparklineEdges(t *testing.T) {
	if Sparkline([]float64{}) != "" {
		t.Fatal("empty slice should render nothing")
	}
	one := Sparkline([]float64{7})
	if len([]rune(one)) != 1 {
		t.Fatalf("single-point sparkline = %q", one)
	}
	if []rune(one)[0] != '█' {
		t.Fatalf("single positive point should be the max glyph, got %q", one)
	}
	// Negative values clamp to the lowest glyph rather than panicking.
	neg := Sparkline([]float64{-5, 10})
	if []rune(neg)[0] != '▁' {
		t.Fatalf("negative value should clamp to lowest glyph, got %q", neg)
	}
}
