// Command bench is the repository's benchmark: it drives the stack
// through its public functions on five named workloads, checks the
// simulated outputs, and reports end-to-end metrics (untraced) or
// per-layer metrics (traced). See README.md in this directory.
//
// It is a module of its own (ftnoc/bench, see go.mod) nested in the ftnoc
// module it measures, so it runs from this directory; paths below are
// relative to it. From the repository root, B is `sh bench/run.sh`:
//
//	B                         all workloads, 10 rounds x 10 ops
//	B -trace 1                per-layer run, writes out/trace-*.json
//	B -workload W -seconds S  one workload for S seconds (the driver's form)
//	B -compare A.json B.json  judge two result documents against the bounds
//	B -update-expected        re-pin expected.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// A fixed-count run is suiteRounds rounds of suiteOps ops, 100 ops per
// workload; a time-limited run (-seconds, the driver's form) splits its
// budget over timedRounds, because every round pays a set-up the budget
// does not cover. Each round is one setup_s sample. A traced run needs
// no set-up statistics, so it is two longer rounds.
const (
	suiteRounds  = 10
	suiteOps     = 10
	timedRounds  = 4
	tracedRounds = 2
	tracedOps    = 25
)

// expectations is expected.json: for the default seed, the digest
// of every variant's result bytes, per workload.
type expectations struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func readExpected(path string) (expectations, error) {
	var e expectations
	b, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	return e, json.Unmarshal(b, &e)
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed         = fs.Uint64("seed", 1, "derives every generated config and spec seed")
		seconds      = fs.Float64("seconds", 0, "measure for this long in total instead of a fixed op count")
		trace        = fs.Int("trace", 0, "1: traced run (spans, layer counts, CPU profile) reporting per-layer metrics")
		outDir       = fs.String("outdir", "out", "directory for the result document (result.json), trace and profile files")
		doCompare    = fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
		update       = fs.Bool("update-expected", false, "run the fixed-count suite at seed 1 and rewrite the pinned digests")
		child        = fs.String("child", "", "internal: run one round described by this JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child != "" {
		req, rep := os.NewFile(probeReqFD, "probe requests"), os.NewFile(probeRepFD, "probe replies")
		defer req.Close()
		defer rep.Close()
		return childMain(*child, stdout, probeClient{req: req, rep: bufio.NewReader(rep)}.read)
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files, have %d", fs.NArg())
		}
		a, err := readSuite(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readSuite(fs.Arg(1))
		if err != nil {
			return err
		}
		if compare(stdout, a, b) {
			return errors.New("B regressed against A")
		}
		return nil
	}

	const expectedPath = "expected.json"
	p := plan{Workloads: workloads, Seed: *seed, Rounds: suiteRounds, Ops: suiteOps, Trace: *trace != 0, OutDir: *outDir}
	if *seconds > 0 {
		p.Rounds = timedRounds
	}
	if *trace != 0 {
		p.Rounds, p.Ops = tracedRounds, tracedOps
	}
	if *seconds > 0 {
		p.Ops, p.Seconds = 0, *seconds/float64(p.Rounds)
	}
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		p.Workloads = []*workload{w}
	}
	if *update {
		p = plan{Workloads: workloads, Seed: 1, Rounds: suiteRounds, Ops: suiteOps, OutDir: *outDir}
	}
	var expected expectations
	if !*update {
		var err error
		if expected, err = readExpected(expectedPath); err != nil {
			return err
		}
	}

	res, err := run(p, expected)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range p.Workloads {
		names = append(names, w.Name)
	}
	res.report(stdout, names)

	if *update {
		if n := res.failed(); n > 0 {
			return fmt.Errorf("%d ops failed; not pinning their digests", n)
		}
		pinned := expectations{Seed: p.Seed, Workloads: make(map[string][]string)}
		for _, w := range p.Workloads {
			digests := res.Workloads[w.Name].digests
			if len(digests) != w.Variants {
				return fmt.Errorf("%s: saw %d of %d variants", w.Name, len(digests), w.Variants)
			}
			for v := 0; v < w.Variants; v++ {
				pinned.Workloads[w.Name] = append(pinned.Workloads[w.Name], digests[v])
			}
		}
		b, err := json.MarshalIndent(pinned, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result.json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if *workloadName != "" {
		line, err := driverLine(res.Workloads[*workloadName], p.Trace)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if n := res.failed(); n > 0 {
		return fmt.Errorf("%d ops failed", n)
	}
	return nil
}
