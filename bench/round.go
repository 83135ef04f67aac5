package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// roundConfig is one round's instructions: what the parent hands a
// fresh child process (as JSON after -child), or runRound directly.
type roundConfig struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Round    int     `json:"round"`
	Start    int     `json:"start"`   // index of the first timed op
	Ops      int     `json:"ops"`     // stop after this many timed ops; 0 = no count limit
	Seconds  float64 `json:"seconds"` // stop once the timed ops have taken this long; 0 = no time limit
	Trace    bool    `json:"trace"`
	// Smoke shrinks every workload's message counts 25-fold and the unit
	// timings to one short batch, so the tier-1 test finishes in seconds
	// under the race detector. Smoke outputs match no pinned digest.
	Smoke bool `json:"smoke,omitempty"`
	// SpawnedUnixNano is when the parent started this process, the zero
	// of setup_s. Zero (in-process rounds) means "when runRound began".
	SpawnedUnixNano int64 `json:"spawned_unix_nano"`
	// ProfilePath, when set on a traced round, receives the raw CPU
	// profile for `go tool pprof`.
	ProfilePath string `json:"profile_path,omitempty"`
}

// opSample is one timed op as the parent sees it.
type opSample struct {
	Variant int     `json:"variant"`
	WallMs  float64 `json:"wall_ms"`
	// HostMs is the host probe's reading around the op (the geometric mean
	// of the readings before and after); timings are judged as WallMs
	// divided by HostMs.
	HostMs       float64 `json:"host_ms"`
	Cycles       uint64  `json:"cycles"`
	FirstPointMs float64 `json:"first_point_ms,omitempty"`
	CachedMs     float64 `json:"cached_ms,omitempty"`
	Digest       string  `json:"digest"`
}

// roundResult is everything one round measured. Traced rounds time a
// short untraced reference phase first (RefMs), then fill Ops and the
// trace fields from the profiled phase.
type roundResult struct {
	Round  int     `json:"round"`
	SetupS float64 `json:"setup_s"`
	// SetupHostMs is the host probe's reading around set-up.
	SetupHostMs float64    `json:"setup_host_ms"`
	Warm        opSample   `json:"warm"`
	Ops         []opSample `json:"ops"`
	Mallocs     uint64     `json:"mallocs"`
	AllocBytes  uint64     `json:"alloc_bytes"`
	PeakRSSKB   uint64     `json:"peak_rss_kb"`
	Attempted   int        `json:"attempted"`
	Failed      int        `json:"failed"`
	Failures    []string   `json:"failures,omitempty"`

	RefMs    []float64          `json:"ref_ms,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	RepsMs   []float64          `json:"reps_ms,omitempty"`
	Units    map[string]float64 `json:"units,omitempty"`
	Profile  *profileBuckets    `json:"profile,omitempty"`
	GCCycles uint32             `json:"gc_cycles,omitempty"`
}

// hostReader takes a host-probe reading in the named shape. A round gets
// the runner's probe through a pipe (probeClient.read); only the smoke
// test, which runs rounds in its own process, reads the probe directly.
type hostReader func(pooled bool) (float64, error)

// round is the state ops run against.
type round struct {
	w      *workload
	seed   uint64
	shrink uint64    // divides message counts; 1 outside the smoke test
	rec    *recorder // nil while untraced
	svc    *cluster  // service_fabric only

	read    hostReader
	hostErr error // the first failed reading; ends the round
}

// host reads the host probe the way the workload's ops use the machine.
func (r *round) host() float64 {
	ms, err := r.read(r.w.Pooled)
	if err != nil && r.hostErr == nil {
		r.hostErr = err
	}
	return ms
}

// maxFailures bounds the failure messages a round carries home.
const maxFailures = 5

// runRound performs one round: set-up (service start-up, one untimed
// warm-up op), then timed ops until the count or time limit.
func runRound(cfg roundConfig, read hostReader) (res roundResult, err error) {
	begun := time.Now()
	if cfg.SpawnedUnixNano != 0 {
		begun = time.Unix(0, cfg.SpawnedUnixNano)
	}
	w := workloadByName(cfg.Workload)
	if w == nil {
		return res, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res.Round = cfg.Round
	r := &round{w: w, seed: cfg.Seed, shrink: 1, read: read}
	// The first reading is the bench's own cost, kept out of setup_s.
	probeStart := time.Now()
	hostBefore := r.host()
	probeCost := time.Since(probeStart)
	if cfg.Smoke {
		r.shrink = 25
	}
	if w.Name == "service_fabric" {
		if r.svc, err = startCluster(); err != nil {
			return res, err
		}
		defer r.svc.close()
	}
	note := func(i int, o opResult) opSample {
		res.Attempted++
		if o.Err != nil {
			res.Failed++
			if len(res.Failures) < maxFailures {
				res.Failures = append(res.Failures, fmt.Sprintf("%s round %d op %d: %v", w.Name, cfg.Round, i, o.Err))
			}
		}
		s := opSample{
			Variant: i % w.Variants, WallMs: o.WallMs, Cycles: o.Cycles,
			FirstPointMs: o.FirstPointMs, CachedMs: o.CachedMs,
		}
		if o.Result != nil {
			s.Digest = digestOf(o.Result)
		}
		return s
	}
	// phase runs timed ops until either limit and returns them. A
	// workload that needs a fresh input per op also stops before its
	// variants wrap: a repeated spec would be answered from the cache.
	next, last := cfg.Start, math.MaxInt
	if w.Fresh {
		last = cfg.Start + w.Variants - 1
	}
	phase := func(ops int, seconds float64, each func(opResult)) []opSample {
		var out []opSample
		start := time.Now()
		host := r.host()
		for (ops == 0 || len(out) < ops) && (seconds == 0 || time.Since(start).Seconds() < seconds) && next < last && r.hostErr == nil {
			r.rec.nextOp()
			o := w.op(r, next%w.Variants)
			if each != nil {
				each(o)
			}
			s := note(next, o)
			after := r.host()
			s.HostMs, host = math.Sqrt(host*after), after
			out = append(out, s)
			next++
		}
		return out
	}

	// The warm-up op uses the variant before Start, so on the grid
	// workloads it never primes the cache for a timed op, and rounds
	// overlap by one variant for the cross-process determinism check.
	warmIdx := cfg.Start + w.Variants - 1
	res.Warm = note(warmIdx, w.op(r, warmIdx%w.Variants))
	res.SetupS = (time.Since(begun) - probeCost).Seconds()
	res.SetupHostMs = math.Sqrt(hostBefore * r.host())

	tally := func(o opResult) {
		res.Mallocs += o.Mallocs
		res.AllocBytes += o.AllocBytes
	}
	if !cfg.Trace {
		res.Ops = phase(cfg.Ops, cfg.Seconds, tally)
		res.PeakRSSKB = peakRSSKB()
		return res, r.hostErr
	}

	// Traced round: a quarter of the budget untraced, as the reference
	// bench.trace_overhead_ratio is taken against; then the same ops
	// under spans, layer counts and the CPU profiler.
	refOps := 0
	if cfg.Ops > 0 {
		refOps = max(1, cfg.Ops/4)
	}
	for _, s := range phase(refOps, cfg.Seconds/4, nil) {
		if s.HostMs > 0 {
			res.RefMs = append(res.RefMs, s.WallMs/s.HostMs)
		}
	}
	var before map[string]float64
	if r.svc != nil {
		if before, err = r.svc.counters(); err != nil {
			return res, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, fmt.Errorf("starting CPU profile: %w", err)
	}
	r.rec = newRecorder()
	if r.svc != nil {
		r.svc.rec.Store(r.rec)
	}
	tracedOps := 0
	if cfg.Ops > 0 {
		tracedOps = max(1, cfg.Ops-refOps)
	}
	res.Ops = phase(tracedOps, cfg.Seconds*3/4, tally)
	rec := r.rec
	r.rec = nil
	if r.svc != nil {
		r.svc.rec.Store(nil)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	res.GCCycles = m1.NumGC - m0.NumGC
	if r.svc != nil {
		after, err := r.svc.counters()
		if err != nil {
			return res, err
		}
		for name, v := range after {
			rec.add(name, v-before[name])
		}
	}
	res.Spans, res.Counts, res.RepsMs = rec.spans, rec.counts, rec.repsMs
	if cfg.ProfilePath != "" {
		if err := os.WriteFile(cfg.ProfilePath, prof.Bytes(), 0o644); err != nil {
			return res, err
		}
	}
	if res.Profile, err = bucketProfile(prof.Bytes()); err != nil {
		return res, err
	}
	res.Units = unitCosts(cfg.Smoke)
	res.PeakRSSKB = peakRSSKB()
	return res, r.hostErr
}

// peakRSSKB is the process's resident-set high-water mark (VmHWM), or 0
// where /proc does not say.
func peakRSSKB() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// The probe pipe's ends in a round process: spawnRound passes them as
// the first two extra files, and main wraps them in a probeClient.
const (
	probeReqFD = 3
	probeRepFD = 4
)

// childMain is the -child entry point: run the round described by arg,
// taking host readings from read, and print its result as one JSON line.
func childMain(arg string, stdout io.Writer, read hostReader) error {
	var cfg roundConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		return fmt.Errorf("decoding -child: %w", err)
	}
	res, err := runRound(cfg, read)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawnRound runs the round in a fresh process of this same binary, so
// heap, GC and RSS state are the round's own, and waits for it. While it
// runs, this process does nothing but answer its host-probe requests.
func spawnRound(cfg roundConfig, probe *hostProbe) (roundResult, error) {
	var res roundResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cfg.SpawnedUnixNano = time.Now().UnixNano()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return res, err
	}
	// A hung round (an SSE stream that never ends, a stalled kernel) is
	// killed, so the driver's form still exits inside its 180 s: four
	// rounds of at most 30 s plus twice their share of -seconds.
	limit := 120 * time.Second
	if cfg.Seconds > 0 {
		limit = 30*time.Second + time.Duration(2*cfg.Seconds*float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return res, err
	}
	defer reqR.Close()
	repR, repW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return res, err
	}
	defer repW.Close()
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{reqW, repR} // probeReqFD, probeRepFD
	var out bytes.Buffer
	cmd.Stdout = &out
	err = cmd.Start()
	// The child holds its own copies now; once it exits, serve sees the
	// request pipe end.
	reqW.Close()
	repR.Close()
	if err == nil {
		served := make(chan struct{})
		go func() {
			defer close(served)
			probe.serve(reqR, repW)
		}()
		err = cmd.Wait()
		<-served
	}
	if ctx.Err() != nil {
		return res, fmt.Errorf("%s round %d: child killed after %s", cfg.Workload, cfg.Round, limit)
	}
	if err != nil {
		return res, fmt.Errorf("%s round %d: child: %w", cfg.Workload, cfg.Round, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s round %d: decoding child result: %w", cfg.Workload, cfg.Round, err)
	}
	return res, nil
}
