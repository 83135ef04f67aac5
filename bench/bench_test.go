package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ftnoc/internal/ecc"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// smokePlan is two ops per workload, in-process, shrunk.
func smokePlan(t *testing.T, traced bool) plan {
	return plan{
		Workloads: workloads, Seed: 7, Rounds: 1, Ops: 2, Trace: traced,
		OutDir: t.TempDir(), Smoke: true,
	}
}

// driverNames runs one driverLine and returns its sorted metric names.
func driverNames(t *testing.T, wr *workloadResult, traced bool) []string {
	t.Helper()
	line, err := driverLine(wr, traced)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("driver line %s: %v", line, err)
	}
	if !doc.Correct || doc.Attempted < 1 || doc.Failed != 0 {
		t.Fatalf("driver line reports correct=%t attempted=%d failed=%d", doc.Correct, doc.Attempted, doc.Failed)
	}
	var names []string
	for name, m := range doc.Metrics {
		if m.Unit == "" {
			t.Errorf("metric %s printed without a unit", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestManifestMatchesTables keeps BENCHMARK.json and the metric tables in
// metrics.go and workload.go the same list, within the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 ||
		len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Fatalf("%d workloads / %d end-to-end / %d per-layer metrics exceed 8 / 16 / 128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}
	used := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for i, w := range m.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: manifest has %q (%q), the bench %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	e2e := manifestEndToEnd()
	if len(m.EndToEnd) != len(e2e) {
		t.Fatalf("manifest lists %d end-to-end metrics, the bench reports %d from every workload", len(m.EndToEnd), len(e2e))
	}
	sawSetup := false
	for i, got := range m.EndToEnd {
		check(got.Name)
		want := e2e[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || got.Bound != want.Bound {
			t.Errorf("end_to_end[%d]: manifest %+v, table %+v", i, got, want)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", got.Name, got.Bound)
		}
		sawSetup = sawSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, the table %d", len(m.PerLayer), len(perLayer))
	}
	for i, got := range m.PerLayer {
		check(got.Name)
		want := perLayer[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per_layer[%d]: manifest %+v, table %+v", i, got, want)
		}
	}
	if len(m.Command) == 0 || len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", m.Command, m.Paths, m.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up, inside the
	// driver's 3420 s (two builds included).
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+6) > 3420-240 {
		t.Errorf("%d runs of %d s leave no room inside 3420 s", runs, m.RunSeconds)
	}
}

// TestSmokeUntraced runs every workload untraced and checks the report
// and the driver line name exactly the manifest's end-to-end metrics.
func TestSmokeUntraced(t *testing.T) {
	m := readManifest(t)
	var want []string
	for _, e := range m.EndToEnd {
		want = append(want, e.Name)
	}
	sort.Strings(want)
	res, err := run(smokePlan(t, false), expectations{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
		wr := res.Workloads[w.Name]
		if wr.Failed != 0 || wr.Attempted != 3 {
			t.Fatalf("%s: %d of %d ops failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if got := driverNames(t, wr, false); !slices.Equal(got, want) {
			t.Errorf("%s prints %v, manifest end_to_end is %v", w.Name, got, want)
		}
		for name, v := range wr.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s %s = %g, want a positive measurement", w.Name, name, v.Value)
			}
		}
		_, hasPoints := wr.EndToEnd["points_per_s"]
		_, hasFirst := wr.EndToEnd["first_point_ms"]
		_, hasCached := wr.EndToEnd["cached_ms"]
		if service := w.Name == "service_fabric"; hasPoints != (w.Points > 1) || hasFirst != service || hasCached != service {
			t.Errorf("%s: points_per_s present=%t, first_point_ms present=%t, cached_ms present=%t; a metric the workload lacks is omitted",
				w.Name, hasPoints, hasFirst, hasCached)
		}
	}
	grid, svc := res.Workloads["campaign_grid"], res.Workloads["service_fabric"]
	if grid.Digest != svc.Digest {
		t.Errorf("campaign_grid digest %s, service_fabric digest %s: same specs must render the same bytes", grid.Digest, svc.Digest)
	}
	// A service op that reads cheaper than the engine's is a failure of
	// the measurement, reported like a failed op.
	biased := &workloadResult{EndToEnd: map[string]value{"op_ms": {Value: 0.8 * grid.EndToEnd["op_ms"].Value}}}
	if biased.checkCostAgainstEngine(&workloadResult{EndToEnd: map[string]value{"op_ms": grid.EndToEnd["op_ms"]}}); biased.Failed != 1 {
		t.Errorf("a service op_ms 20%% below the engine's reported %d failures, want 1", biased.Failed)
	}
	var out bytes.Buffer
	res.report(&out, names)
	for _, e := range endToEnd {
		if !strings.Contains(out.String(), "  "+e.Name+" ") {
			t.Errorf("report does not print %s", e.Name)
		}
	}
	if !strings.Contains(out.String(), "nproc=") || !strings.Contains(out.String(), "seed=7") {
		t.Errorf("report is not stamped with the host shape:\n%s", out.String())
	}

	// A deliberately corrupted pinned digest is a failed op.
	wr := res.Workloads["hbh_clean"]
	pinned := make([]string, workloads[0].Variants)
	for v, d := range wr.digests {
		pinned[v] = d
	}
	wr.checkPinned(workloads[0], pinned)
	if wr.Failed != 0 {
		t.Fatalf("matching digests reported %d failures", wr.Failed)
	}
	for v := range wr.digests {
		pinned[v] = "0000000000000000"
		break
	}
	wr.checkPinned(workloads[0], pinned)
	if wr.Failed != 1 {
		t.Fatalf("corrupted digest reported %d failures, want 1", wr.Failed)
	}
}

// TestSmokeTraced runs every workload traced and checks the driver line
// names exactly the manifest's per-layer metrics, the profile is
// attributed, and the trace files appear.
func TestSmokeTraced(t *testing.T) {
	m := readManifest(t)
	var want []string
	for _, e := range m.PerLayer {
		want = append(want, e.Name)
	}
	sort.Strings(want)
	p := smokePlan(t, true)
	res, err := run(p, expectations{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr.Failed != 0 {
			t.Fatalf("%s: %d ops failed: %v", w.Name, wr.Failed, wr.Failures)
		}
		if got := driverNames(t, wr, true); !slices.Equal(got, want) {
			t.Errorf("%s prints %v, manifest per_layer is %v", w.Name, got, want)
		}
		for _, name := range []string{"bench.trace_overhead_ratio", "ecc.encode_ns", "link.hop_ns", "network.cycles"} {
			if v, ok := wr.PerLayer[name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v (present %t), want a positive measurement", w.Name, name, v.Value, ok)
			}
		}
		_, hasAccept := wr.PerLayer["serve.accept_ms"]
		if hasAccept != (w.Name == "service_fabric") {
			t.Errorf("%s: serve.accept_ms present=%t; an unexercised layer is omitted, never zero", w.Name, hasAccept)
		}
		for _, file := range []string{"trace-" + w.Name + ".json", "profile-" + w.Name + "-round0.pb.gz"} {
			if st, err := os.Stat(filepath.Join(p.OutDir, file)); err != nil || st.Size() == 0 {
				t.Errorf("%s was not written: %v", file, err)
			}
		}
	}
}

// TestCompare judges a doctored copy of a result against the original.
func TestCompare(t *testing.T) {
	base := &suiteResult{Workloads: map[string]*workloadResult{
		"hbh_clean": {EndToEnd: map[string]value{
			"op_ms":            {Value: 100, Unit: "ms", Spread: 0.02},
			"sim_cycles_per_s": {Value: 1000, Unit: "cycles/s", Spread: 0.02},
			"peak_rss_mb":      {Value: 16, Unit: "MiB", Spread: 0.3},
		}},
	}}
	worse := &suiteResult{Workloads: map[string]*workloadResult{
		"hbh_clean": {EndToEnd: map[string]value{
			"op_ms":            {Value: 105, Unit: "ms", Spread: 0.02},
			"sim_cycles_per_s": {Value: 600, Unit: "cycles/s", Spread: 0.02},
			"peak_rss_mb":      {Value: 32, Unit: "MiB", Spread: 0.3},
		}},
	}}
	var out bytes.Buffer
	if compare(&out, base, base) {
		t.Errorf("a result regressed against itself:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, base, worse) {
		t.Errorf("a 40%% throughput drop was not a regression:\n%s", out.String())
	}
	for _, want := range []string{"op_ms", "ok", "sim_cycles_per_s", "regressed", "peak_rss_mb", "unresolved", "failed_share"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	worse.Workloads["hbh_clean"].EndToEnd["sim_cycles_per_s"] = value{Value: 1000, Spread: 0.02}
	worse.Workloads["hbh_clean"].FailedShare = 0.01
	if !compare(&out, base, worse) {
		t.Error("a higher failed_share was not a regression")
	}

	// The command-line form reads the two documents from files.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for path, s := range map[string]*suiteResult{a: base, b: worse} {
		doc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := realMain([]string{"-compare", a, a}, &out); err != nil {
		t.Errorf("-compare A A: %v", err)
	}
	if err := realMain([]string{"-compare", a, b}, &out); err == nil {
		t.Error("-compare A B exited zero on a regression")
	}
	if err := realMain([]string{"-compare", a}, &out); err == nil {
		t.Error("-compare with one file exited zero")
	}
}

// TestChildRound drives the -child entry point the runner re-executes,
// with the runner's probe at the far end of two pipes as in spawnRound.
func TestChildRound(t *testing.T) {
	arg, err := json.Marshal(roundConfig{Workload: "faults_heavy", Seed: 3, Ops: 1, Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	reqR, reqW := io.Pipe()
	repR, repW := io.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		newHostProbe().serve(reqR, repW)
	}()
	client := probeClient{req: reqW, rep: bufio.NewReader(repR)}
	for _, pooled := range []bool{false, true} {
		if ms, err := client.read(pooled); err != nil || ms <= 0 || math.IsInf(ms, 0) {
			t.Errorf("host reading (pooled %t) = %g, %v", pooled, ms, err)
		}
	}
	var out bytes.Buffer
	if err := childMain(string(arg), &out, client.read); err != nil {
		t.Fatal(err)
	}
	reqW.Close()
	<-served
	if _, err := client.read(false); err == nil {
		t.Error("a reading from a closed probe pipe succeeded")
	}
	var res roundResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("child printed %q: %v", out.String(), err)
	}
	if res.Attempted != 2 || res.Failed != 0 || len(res.Ops) != 1 || res.SetupS <= 0 || res.Mallocs == 0 {
		t.Errorf("child round: %+v", res)
	}
	if err := childMain(`{"workload":"nope"}`, &out, client.read); err == nil {
		t.Error("an unknown workload exited zero")
	}
}

func TestEstimators(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := percentile(samples, 50); got != 5 {
		t.Errorf("median of 1..10 = %g, want the nearest rank, 5", got)
	}
	if got := percentile(samples, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := spread(samples); got != 1 {
		t.Errorf("quartile spread of 1..10 = %g, want (8.25-2.75)/5.5", got)
	}
	if got := spread([]float64{4, 1, 3, 2}); got != 1 {
		t.Errorf("quartile spread of 1..4 = %g, want (3.75-1.25)/2.5", got)
	}
	if got := quietMean(samples); got != 1.5 {
		t.Errorf("fastest-quartile mean of 1..10 = %g, want 1.5", got)
	}
}

func TestProfileClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ftnoc/internal/router.(*Router).Tick", "ftnoc/internal/sim.(*Kernel).Step"}, "router"},
		{[]string{"ftnoc/internal/sim.(*Pipe[go.shape.struct { ftnoc/internal/flit.Type }]).Push"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "ftnoc/internal/network.New"}, "runtime.other"},
		{[]string{"sort.Float64s", "ftnoc/internal/stats.(*LatencyStats).Percentile"}, "network"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*conn).serve"}, "stdlib.http_json"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode", "ftnoc/internal/campaign.WriteRowsNDJSON"}, "stdlib.http_json"},
	} {
		if got, _ := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	if _, ok := classify([]string{"os.ReadFile", "main.main"}); ok {
		t.Error("a stack outside every layer was attributed")
	}
}

// TestBucketProfile reads back a real runtime/pprof profile of this
// process spinning in one layer's code.
func TestBucketProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler is taken: %v", err)
	}
	word := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			d, _, _ := ecc.Decode(ecc.FlipDataBit(word, i), ecc.Encode(word))
			word += d
		}
	}
	pprof.StopCPUProfile()
	sink += word
	b, err := bucketProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector most leaves are its own runtime calls, which
	// no layer claims; ecc must still lead the attributed time.
	var attributed float64
	for _, ns := range b.ByLayer {
		attributed += ns
	}
	if b.TotalNs <= 0 || b.ByLayer["ecc"] <= attributed/2 {
		t.Errorf("profile of an ECC loop: total %g ns, by layer %v, unattributed %v", b.TotalNs, b.ByLayer, b.Unattributed)
	}
	if _, err := bucketProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
