package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSpec holds the campaign-spec parser — the exact surface nocd
// exposes to untrusted POST bodies — to: no panics; an accepted spec's
// grid expands without panicking; and CanonicalHash either fails cleanly
// or is stable across calls. Grid expansion is skipped for adversarially
// huge axis products (Points preallocates the product).
func FuzzParseSpec(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"seeds":3,"workers":2,"invariants":true}`)
	f.Add(`{"base":{"width":4,"height":4},"sizes":["4x4","8x8"],"routings":["xy","adaptive"]}`)
	f.Add(`{"protections":["hbh","e2e","fec"],"patterns":["NR","BC"],"link_error_rates":[0,0.001]}`)
	f.Add(`{"sizes":[{"width":3,"height":3}],"injection_rates":[0.1,0.2,0.3]}`)
	f.Add(`{"topologies":["mesh","torus"]}`)
	f.Add(`{"sizes":["axb"]}`)
	f.Add(`{"base":{"injection_rate":2}}`)
	f.Add(`{"kernel":"naive"}`)
	f.Add(`{"kernel":"parallel","kernel_workers":2}`)

	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := ParseSpec([]byte(doc))
		if err != nil {
			return
		}
		product := 1
		for _, n := range []int{
			max(len(spec.Sizes), 1), max(len(spec.Topologies), 1),
			max(len(spec.Routings), 1), max(len(spec.Protections), 1),
			max(len(spec.Patterns), 1), max(len(spec.LinkErrorRates), 1),
			max(len(spec.InjectionRates), 1),
		} {
			product *= n
		}
		if product > 4096 {
			return
		}
		points := spec.Points()
		if len(points) != product {
			t.Fatalf("grid expanded to %d points, axes imply %d", len(points), product)
		}
		h1, err := spec.CanonicalHash()
		if err != nil {
			return // an invalid point makes the spec unhashable — fine
		}
		h2, err := spec.CanonicalHash()
		if err != nil || h1 != h2 {
			t.Fatalf("CanonicalHash unstable: %q / %q (err %v)", h1, h2, err)
		}
	})
}

// FuzzReadNDJSON holds the NDJSON result-table parser to: no panics,
// and an accepted table, nested per-replicate rows included, reaching a
// fixed point after one rewrite — Write(Read(Write(Read(input)))) ==
// Write(Read(input)) byte for byte. Comparing the two written forms
// (rather than the parsed rows) keeps the law meaningful when a field
// holds NaN.
func FuzzReadNDJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteRowsNDJSON(&buf, []PointRow{{
		Point: 1, Width: 4, Height: 4, Topology: "mesh", Routing: "adaptive",
		Protection: "E2E", Pattern: "TN", LinkErrorRate: 0.001, InjectionRate: 0.3,
		Reps: 1, Completed: 1,
		Throughput: EstimateRow{Mean: 0.29, N: 1},
		Replicates: []RepRow{{Seed: 7, Delivered: 600, Cycles: 9000, AvgLatency: 21.5}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("{}\n")
	f.Add("{\"point\":1}\n\n{\"point\":2}\n")
	f.Add("nonsense\n")

	f.Fuzz(func(t *testing.T, doc string) {
		rows, err := ReadNDJSON(strings.NewReader(doc))
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := WriteRowsNDJSON(&w1, rows); err != nil {
			t.Fatalf("accepted rows do not re-serialise: %v", err)
		}
		rows2, err := ReadNDJSON(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := WriteRowsNDJSON(&w2, rows2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write/read/write not a fixed point:\nfirst:  %s\nsecond: %s", w1.Bytes(), w2.Bytes())
		}
	})
}
