// Package visual renders simulation measurements as plain-text graphics:
// per-node heatmaps of the chip floorplan and horizontal bar charts for
// series data. Pure string formatting — no terminal control codes — so
// output is pipe- and log-friendly.
package visual

import (
	"fmt"
	"math"
	"strings"
)

// shades orders glyphs from empty to full for heatmap cells.
var shades = []rune{'.', '░', '▒', '▓', '█'}

// Heatmap renders a W x H grid of values in [0, max] as a shaded
// floorplan, row 0 on top, with a legend. Values are fetched through at;
// max <= 0 auto-scales to the largest value.
func Heatmap(w, h int, max float64, title string, at func(x, y int) float64) string {
	if w < 1 || h < 1 {
		return ""
	}
	if max <= 0 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				max = math.Max(max, at(x, y))
			}
		}
		if max == 0 {
			max = 1
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (scale: '%c'=0", title, shades[0])
	fmt.Fprintf(&b, " .. '%c'=%.3g)\n", shades[len(shades)-1], max)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := at(x, y)
			idx := 0
			if v > 0 {
				idx = int(math.Ceil(v / max * float64(len(shades)-1)))
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			b.WriteRune(shades[idx])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Sparkline renders a series as a single line of block glyphs.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	glyphs := []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}
	max := 0.0
	for _, v := range values {
		max = math.Max(max, v)
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	for _, v := range values {
		idx := int(v / max * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
