package sim

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// A nil store is plain make: a fresh zeroed slice each call.
func TestMakeNilStore(t *testing.T) {
	a, b := Make[int](nil, 4), Make[int](nil, 4)
	if len(a) != 4 || cap(a) != 4 || &a[0] == &b[0] {
		t.Fatalf("nil store: len %d cap %d, shared backing %v", len(a), cap(a), &a[0] == &b[0])
	}
}

// A build in a store gets the previous build's slab of the same element
// type and ordinal, cleared and capped at the length asked for; a slab
// too small for the ask is replaced, and the replacement reused next.
func TestMakeReusesBySlot(t *testing.T) {
	var s Slabs
	s.Begin()
	ints0, ints1 := Make[int](&s, 8), Make[int](&s, 3)
	bytes0 := Make[byte](&s, 5)
	for i := range ints0 {
		ints0[i] = i + 1
	}
	ints1[0], bytes0[0] = 7, 9

	s.Begin()
	// A slab of another type first, and an extra one of it: ints keep
	// their ordinals.
	Make[byte](&s, 5)
	Make[byte](&s, 2)
	got0, got1 := Make[int](&s, 6), Make[int](&s, 4)
	if &got0[0] != &ints0[0] {
		t.Error("int slot 0 was not reused")
	}
	if len(got0) != 6 || cap(got0) != 6 {
		t.Errorf("reused slab has len %d cap %d, want 6 and 6", len(got0), cap(got0))
	}
	for i, v := range ints0 {
		if v != 0 {
			t.Fatalf("reused slab not cleared: [%d] = %d", i, v)
		}
	}
	if &got1[0] == &ints1[0] || len(got1) != 4 {
		t.Error("int slot 1 was too small and must be replaced")
	}

	s.Begin()
	if again := Make[int](&s, 1); &again[0] != &ints0[0] {
		t.Error("int slot 0 not reused on the third build")
	}
	if again := Make[int](&s, 4); &again[0] != &got1[0] {
		t.Error("int slot 1's replacement not reused")
	}
}

// Reusing a slab allocates nothing: only a slot's first slab is made.
func TestMakeReuseAllocatesNothing(t *testing.T) {
	var s Slabs
	build := func() {
		s.Begin()
		Make[RNG](&s, 64)
		Make[uint64](&s, 100)
		Make[uint64](&s, 10)
		Make[*Kernel](&s, 7)
	}
	build()
	if n := testing.AllocsPerRun(10, build); n != 0 {
		t.Fatalf("a reused build made %v allocations", n)
	}
}

// The free list hands out the most recently returned store first, keeps
// the GOMAXPROCS most recent, and makes an empty store when it has none.
func TestFreeListKeepsLatest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, b, c := new(Slabs), new(Slabs), new(Slabs)
	for _, s := range []*Slabs{a, b, c} {
		GiveSlabs(s)
	}
	if TakeSlabs() != c || TakeSlabs() != b {
		t.Fatal("the list did not hand out its latest stores first")
	}
	if s := TakeSlabs(); s == a || s == nil {
		t.Fatalf("took %p after the two latest: want a new store, not the one dropped past GOMAXPROCS (%p)", s, a)
	}
}

// A store given back holds zeroes: a finished build's pointers (to a
// caller's sinks, say) stay alive no longer than its run, including those
// in the slabs its buffers grew into.
func TestGiveSlabsClears(t *testing.T) {
	s, x := new(Slabs), 7
	s.Begin()
	ptrs, vals := Make[*int](s, 3), Make[int](s, 2)
	ptrs[2], vals[1] = &x, x
	var grown []*int
	for range 9 {
		grown = append(Grow(s, grown, 1), &x)
	}
	GiveSlabs(s)
	if ptrs[2] != nil || vals[1] != 0 {
		t.Fatalf("given-back slabs hold %p and %d, want nil and 0", ptrs[2], vals[1])
	}
	for i, p := range grown {
		if p != nil {
			t.Fatalf("given-back grown slab holds %p at %d, want nil", p, i)
		}
	}
	if TakeSlabs() != s {
		t.Fatal("the list did not hand back the store just given")
	}
}

// Grow keeps a buffer's elements and its length, gives room for what is
// asked, and with a nil store is plain growth.
func TestGrowKeepsElements(t *testing.T) {
	for _, s := range []*Slabs{nil, new(Slabs)} {
		s.Begin()
		buf := Make[int](s, 3)[:2]
		buf[0], buf[1] = 4, 5
		if got := Grow(s, buf, 1); &got[0] != &buf[0] {
			t.Fatalf("store %v: Grow moved a buffer that had room", s != nil)
		}
		var want []int
		for i := range 40 {
			buf = append(Grow(s, buf, 1), i)
			want = append(want, i)
		}
		buf = Grow(s, buf, 100)
		if len(buf) != 42 || cap(buf) < 142 || buf[0] != 4 || buf[1] != 5 || !slices.Equal(buf[2:], want) {
			t.Fatalf("store %v: grown to len %d cap %d holding %v", s != nil, len(buf), cap(buf), buf)
		}
	}
}

// Within a build, Make and Grow never hand out one slab twice, whichever
// order the types and sizes come in, and a repeated build gets the same
// slabs back without allocating.
func TestGrowHandsOutEachSlabOnce(t *testing.T) {
	var s Slabs
	slabs := make([]unsafe.Pointer, 0, 100)
	build := func() {
		s.Begin()
		slabs = slabs[:0]
		var a []uint64
		var b []byte
		for i := range 30 {
			if cap(a) == len(a) {
				a = Grow(&s, a, 1)
				slabs = append(slabs, unsafe.Pointer(unsafe.SliceData(a)))
			}
			a = append(a, uint64(i))
			if i%3 == 0 {
				if cap(b)-len(b) < 5 {
					b = Grow(&s, b, 5)
					slabs = append(slabs, unsafe.Pointer(unsafe.SliceData(b)))
				}
				b = append(b, 1, 2, 3, 4, 5)
			}
			slabs = append(slabs, unsafe.Pointer(unsafe.SliceData(Make[uint64](&s, 1+i%4))))
		}
	}
	build()
	seen := map[unsafe.Pointer]bool{}
	for _, p := range slabs {
		if seen[p] {
			t.Fatalf("slab %p handed out twice in one build", p)
		}
		seen[p] = true
	}
	if n := testing.AllocsPerRun(5, build); n != 0 {
		t.Fatalf("a repeated build made %v allocations", n)
	}
}

// Begin releases a slab more than 4x what the build before asked of it,
// and keeps one that build did not touch. Slots that outgrew their first
// array leave no copy there to keep a released slab alive.
func TestBeginReleasesOversizedSlabs(t *testing.T) {
	var s Slabs
	s.Begin()
	big, kept := Make[int](&s, 1000), Make[byte](&s, 1000)
	for range len(s.buf) {
		Make[uint16](&s, 1)
	}
	s.Begin()
	if small := Make[int](&s, 100); &small[0] != &big[0] {
		t.Fatal("a slab 10x the ask was not handed out")
	}
	s.Begin()
	if again := Make[int](&s, 100); &again[0] == &big[0] {
		t.Fatal("a slab 10x what the last build asked survived it")
	}
	if again := Make[byte](&s, 1000); &again[0] != &kept[0] {
		t.Fatal("a slab the last build did not touch was released")
	}
	for _, sl := range s.buf {
		if sl.p == unsafe.Pointer(&big[0]) {
			t.Fatal("the slots' first array still holds a released slab")
		}
	}
}
