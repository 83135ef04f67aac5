package fault

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
)

func cleanFlit() flit.Flit {
	f := flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 2}.Flits()[0]
	return f
}

func TestLinkInjectorRate(t *testing.T) {
	inj := NewLinkInjector(0.1, 0.05, sim.NewRNG(1))
	var single, double, clean int
	const n = 100_000
	for i := 0; i < n; i++ {
		f := cleanFlit()
		switch inj.Corrupt(&f) {
		case NoError:
			clean++
		case SingleFlip:
			single++
		case DoubleFlip:
			double++
		}
	}
	errFrac := float64(single+double) / n
	if math.Abs(errFrac-0.1) > 0.01 {
		t.Fatalf("error rate %.4f, want ~0.1", errFrac)
	}
	dblFrac := float64(double) / float64(single+double)
	if math.Abs(dblFrac-0.05) > 0.01 {
		t.Fatalf("double fraction %.4f, want ~0.05", dblFrac)
	}
}

func TestLinkInjectorZeroRate(t *testing.T) {
	inj := NewLinkInjector(0, 0.05, sim.NewRNG(1))
	f := cleanFlit()
	for i := 0; i < 1000; i++ {
		if inj.Corrupt(&f) != NoError {
			t.Fatal("zero-rate injector corrupted a flit")
		}
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *LinkInjector
	f := cleanFlit()
	if inj.Corrupt(&f) != NoError {
		t.Fatal("nil injector corrupted")
	}
}

// The injected corruption must be exactly what the ECC sees: singles
// decode as Corrected, doubles as Detected.
func TestInjectionMatchesECCOutcome(t *testing.T) {
	inj := NewLinkInjector(1, 0.5, sim.NewRNG(9))
	for i := 0; i < 5000; i++ {
		f := cleanFlit()
		out := inj.Corrupt(&f)
		_, _, dec := ecc.Decode(f.Word, f.Check)
		switch out {
		case SingleFlip:
			if dec != ecc.Corrected {
				t.Fatalf("single flip decoded as %v", dec)
			}
		case DoubleFlip:
			if dec != ecc.Detected {
				t.Fatalf("double flip decoded as %v", dec)
			}
		default:
			t.Fatal("rate-1 injector produced no error")
		}
	}
}

func TestDoubleFlipsDistinctBits(t *testing.T) {
	// If the two flips ever hit the same bit they would cancel and decode
	// clean; the injector must prevent that.
	inj := NewLinkInjector(1, 1, sim.NewRNG(4))
	for i := 0; i < 5000; i++ {
		f := cleanFlit()
		inj.Corrupt(&f)
		if _, _, dec := ecc.Decode(f.Word, f.Check); dec == ecc.OK {
			t.Fatal("double flip cancelled itself")
		}
	}
}

func TestLogicInjectorRate(t *testing.T) {
	inj := NewLogicInjector(SALogic, 0.01, sim.NewRNG(2))
	if inj.Class() != SALogic {
		t.Fatal("class wrong")
	}
	hits := 0
	const n = 200_000
	for i := 0; i < n; i++ {
		if inj.Upset() {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.01) > 0.002 {
		t.Fatalf("upset rate %.5f, want ~0.01", frac)
	}
}

func TestNilLogicInjectorNeverUpsets(t *testing.T) {
	var inj *LogicInjector
	for i := 0; i < 100; i++ {
		if inj.Upset() {
			t.Fatal("nil injector upset")
		}
	}
}

func TestInjectorPanicsOnBadRates(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLinkInjector(-0.1, 0, sim.NewRNG(1)) },
		func() { NewLinkInjector(1.1, 0, sim.NewRNG(1)) },
		func() { NewLinkInjector(0.5, 2, sim.NewRNG(1)) },
		func() { NewLogicInjector(RTLogic, -1, sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad rate did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		LinkError: "LINK", RTLogic: "RT-Logic", VALogic: "VA-Logic", SALogic: "SA-Logic",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.AddInjected(LinkError)
	c.AddInjected(LinkError)
	c.AddCorrected(LinkError)
	c.AddUndetected(SALogic)
	if c.Injected[LinkError] != 2 || c.Corrected[LinkError] != 1 || c.Undetected[SALogic] != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}

	// A snapshot is detached: same counts, no observer, and later activity
	// on the live counters does not reach it.
	c.NACKs = 3
	c.Observer = func(CounterOp, Class) {}
	snap := c.Snapshot()
	c.AddInjected(LinkError)
	c.NACKs++
	if snap.Observer != nil || snap.Injected[LinkError] != 2 || snap.NACKs != 3 || snap.Undetected[SALogic] != 1 {
		t.Fatalf("snapshot not a detached copy: %+v", snap)
	}

	// A snapshot of several sums them, and leaves them as they were.
	other := NewCounters()
	other.AddCorrected(VALogic)
	other.NACKs = 2
	sum := c.Snapshot(other)
	if sum.Injected[LinkError] != 3 || sum.Corrected[VALogic] != 1 || sum.NACKs != 6 {
		t.Fatalf("summed snapshot wrong: %+v", sum)
	}
	if c.Corrected[VALogic] != 0 || c.NACKs != 4 || other.NACKs != 2 {
		t.Fatalf("summing changed its inputs: %+v, %+v", c, other)
	}
}

// Counting into a zero Counters, a class of every kind, allocates
// nothing.
func TestCountingAllocatesNothing(t *testing.T) {
	var c Counters
	if n := testing.AllocsPerRun(1, func() {
		c.AddInjected(LinkError)
		c.AddCorrected(RTLogic)
		c.AddUndetected(XbarError)
	}); n != 0 {
		t.Fatalf("counting made %v allocations", n)
	}
}

// Snapshot sums every count of the counters it is given: each class slot
// and each scalar, the way stats.Events.Add sums every field.
func TestSnapshotSumsEveryField(t *testing.T) {
	// counts lists c's counts in field order, each class slot in turn.
	counts := func(c *Counters) (out []reflect.Value) {
		v := reflect.ValueOf(c).Elem()
		for i := range v.NumField() {
			switch f := v.Field(i); f.Kind() {
			case reflect.Array:
				for cl := range f.Len() {
					out = append(out, f.Index(cl))
				}
			case reflect.Uint64:
				out = append(out, f)
			case reflect.Func: // the Observer
			default:
				t.Fatalf("Counters.%s: a %v the test does not sum", v.Type().Field(i).Name, f.Kind())
			}
		}
		return out
	}
	var a, b Counters
	ca, cb := counts(&a), counts(&b)
	for k := range ca {
		ca[k].SetUint(uint64(1000 * (k + 1)))
		cb[k].SetUint(uint64(k + 1))
	}
	for k, v := range counts(a.Snapshot(&b)) {
		if got, want := v.Uint(), uint64(1001*(k+1)); got != want {
			t.Errorf("count %d in field order = %d, want %d", k, got, want)
		}
	}
}

// ClassCounts marshals byte for byte as the map[Class]uint64 it replaced
// (the form the benchmark's result digests pin), and reads back.
func TestClassCountsJSON(t *testing.T) {
	all := ClassCounts{}
	for cl := LinkError; cl <= XbarError; cl++ {
		all[cl] = uint64(cl) * 1_000_000_007
	}
	for _, cc := range []ClassCounts{{}, {SALogic: 9}, {LinkError: 72, SALogic: 9}, all} {
		m := map[Class]uint64{}
		for cl, n := range cc {
			if n > 0 {
				m[Class(cl)] = n
			}
		}
		got, err := json.Marshal(cc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Marshal(%v) = %s, want %s", cc, got, want)
		}
		var back ClassCounts
		if err := json.Unmarshal(got, &back); err != nil || back != cc {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v", got, back, err, cc)
		}
	}
	for _, bad := range []string{`{"8":1}`, `{"x":1}`, `{"1":-1}`, `[1]`} {
		var cc ClassCounts
		if err := json.Unmarshal([]byte(bad), &cc); err == nil {
			t.Errorf("Unmarshal(%s) = %v, want an error", bad, cc)
		}
	}
}

// unbatchedCorrupt is the reference the batched LinkInjector must equal:
// one Bernoulli draw per traversal, then the bit choices on a hit.
func unbatchedCorrupt(f *flit.Flit, rate, double float64, rng *sim.RNG) LinkOutcome {
	if !rng.Bool(rate) {
		return NoError
	}
	a := rng.Intn(72)
	flipBit(f, a)
	if !rng.Bool(double) {
		return SingleFlip
	}
	b := rng.Intn(71)
	if b >= a {
		b++
	}
	flipBit(f, b)
	return DoubleFlip
}

// drawsFrom reports how many Uint64 draws took a stream seeded with seed
// to the state of rng.
func drawsFrom(t *testing.T, seed uint64, rng *sim.RNG) int {
	t.Helper()
	at := sim.NewRNG(seed)
	for d := 0; d < 1<<22; d++ {
		if *at == *rng {
			return d
		}
		at.Uint64()
	}
	t.Fatal("stream never reached the injector's state")
	return 0
}

// Drawing ahead must not change what a link does: the same outcomes and
// flipped bits as one draw per traversal, and once the reference has made
// the miss draws the injector still holds in hand, the same RNG state.
func TestLinkInjectorMatchesUnbatchedStream(t *testing.T) {
	const traversals = 20_000
	for _, rate := range []float64{1e-5, 1e-2, 0.1, 1} {
		for _, double := range []float64{0, 0.5, 1} {
			const seed = 77
			rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
			inj := NewLinkInjector(rate, double, rng)
			for i := 0; i < traversals; i++ {
				got, want := cleanFlit(), cleanFlit()
				o, w := inj.Corrupt(&got), unbatchedCorrupt(&want, rate, double, ref)
				if o != w || got != want {
					t.Fatalf("rate %g double %g traversal %d: outcome %v flit %+v, unbatched %v %+v",
						rate, double, i, o, got, w, want)
				}
			}
			for i := 0; i < inj.misses; i++ {
				if ref.Bool(rate) {
					t.Fatalf("rate %g double %g: a miss the injector holds is a hit in the stream", rate, double)
				}
			}
			if inj.hitNext && !ref.Bool(rate) {
				t.Fatalf("rate %g double %g: the hit the injector holds is a miss in the stream", rate, double)
			}
			if *rng != *ref {
				t.Fatalf("rate %g double %g: RNG states differ after %d traversals", rate, double, traversals)
			}
		}
	}
}

// A link draws ahead of its traffic by a small bounded run, however few
// flits cross it: a mesh has hundreds of links and most carry little, so
// what a quiet link draws and never uses is paid hundreds of times.
func TestLinkInjectorDrawAheadIsBounded(t *testing.T) {
	const bound = 128 // draws; the literal keeps a larger maxMissBatch from passing unnoticed
	for _, traversals := range []int{1, 10, 1000} {
		for _, rate := range []float64{1e-5, 0.1} {
			const seed = 5
			rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
			inj := NewLinkInjector(rate, DefaultLinkDouble, rng)
			for i := 0; i < traversals; i++ {
				f, g := cleanFlit(), cleanFlit()
				inj.Corrupt(&f)
				unbatchedCorrupt(&g, rate, DefaultLinkDouble, ref)
			}
			used, needed := drawsFrom(t, seed, rng), drawsFrom(t, seed, ref)
			if used < needed || used > needed+bound {
				t.Fatalf("rate %g: %d traversals consumed %d draws, one per traversal needs %d, allowed ahead %d",
					rate, traversals, used, needed, bound)
			}
		}
	}
}

// The batch constructors build injectors that behave exactly as ones
// built alone on the same streams.
func TestBatchInjectorsMatchSingle(t *testing.T) {
	streams, alone := sim.NewRNG(4).SplitN(nil, 3), sim.NewRNG(4).SplitN(nil, 3)
	links := NewLinkInjectors(nil, 3, 0.2, 0.5, func(i int) *sim.RNG { return &streams[i] })
	for i := range links {
		one := NewLinkInjector(0.2, 0.5, &alone[i])
		for n := 0; n < 200; n++ {
			f1, f2 := cleanFlit(), cleanFlit()
			if o1, o2 := links[i].Corrupt(&f1), one.Corrupt(&f2); o1 != o2 || f1 != f2 {
				t.Fatalf("link injector %d traversal %d: batch %v, alone %v", i, n, o1, o2)
			}
		}
	}
	streams, alone = sim.NewRNG(5).SplitN(nil, 3), sim.NewRNG(5).SplitN(nil, 3)
	logic := NewLogicInjectors(nil, 3, VALogic, 0.1, func(i int) *sim.RNG { return &streams[i] })
	for i := range logic {
		one := NewLogicInjector(VALogic, 0.1, &alone[i])
		if logic[i].Class() != VALogic {
			t.Fatalf("logic injector %d has class %v", i, logic[i].Class())
		}
		for n := 0; n < 200; n++ {
			if u1, u2 := logic[i].Upset(), one.Upset(); u1 != u2 {
				t.Fatalf("logic injector %d operation %d: batch %v, alone %v", i, n, u1, u2)
			}
		}
	}
}
