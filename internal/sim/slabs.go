package sim

import (
	"runtime"
	"sync"
	"unsafe"
)

// Slabs is a store of construction slabs that a sequence of builds
// shares: a build gets back the previous build's slabs (Make) wherever
// they are large enough, so later builds allocate nothing for them.
//
// The k-th Make of element type T in a build is handed the k-th slab of
// type T recorded before, so an extra slab of one type (a mortality
// point's controller, say) shifts only later slabs of that type. What a
// build made is dead once the store builds again or goes back to the free
// list: results must copy out. A store has one owner at a time (TakeSlabs)
// and must not be copied. The zero value is an empty store; a nil *Slabs
// means plain make.
type Slabs struct {
	slots []slot   // every recorded slab, in the order first made
	buf   [64]slot // slots' first array: a build's ~40 slabs fit, unallocated
}

// slot is one recorded []T as its first element's address and capacity,
// which unsafe.Slice rebuilds; a type's slots, in order, are its ordinals.
type slot struct {
	k    kind
	used bool // handed out in the current build; if not, the slab is zero
	p    unsafe.Pointer
	n    int
}

// kind is a slot's element type T as a kindOf[T], which clears the slot's
// memory; being zero-sized, it boxes without allocating.
type kind interface{ clear(p unsafe.Pointer, n int) }

type kindOf[T any] struct{}

func (kindOf[T]) clear(p unsafe.Pointer, n int) { clear(unsafe.Slice((*T)(p), n)) }

// Begin starts a build: ordinals restart from zero, and the slabs the
// previous build was handed are cleared for reuse. A no-op on a nil store.
func (s *Slabs) Begin() {
	if s == nil {
		return
	}
	for i := range s.slots {
		if sl := &s.slots[i]; sl.used {
			sl.k.clear(sl.p, sl.n)
			sl.used = false
		}
	}
}

// Make returns a zeroed []T of length and capacity n. With a nil store it
// is make([]T, n). Otherwise it is this build's next slab of type T: the
// previous builds' slab in that slot if it holds n elements, else a new
// one recorded in its place.
func Make[T any](s *Slabs, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if s.slots == nil {
		s.slots = s.buf[:0]
	}
	k, i := kind(kindOf[T]{}), 0
	for i < len(s.slots) && (s.slots[i].k != k || s.slots[i].used) {
		i++
	}
	if i == len(s.slots) {
		s.slots = append(s.slots, slot{k: k})
	}
	sl := &s.slots[i]
	sl.used = true
	if sl.p == nil || sl.n < n {
		slab := make([]T, n)
		sl.p, sl.n = unsafe.Pointer(unsafe.SliceData(slab)), n
		return slab
	}
	return unsafe.Slice((*T)(sl.p), n)
}

// free is the process's free list of stores: every network.New takes one
// and its run gives it back. It keeps the GOMAXPROCS most recently
// returned, each holding its slabs' memory, cleared, until its next build.
var free struct {
	sync.Mutex
	stores []*Slabs
}

// TakeSlabs hands out the most recently returned store, or an empty one.
// The caller owns it until it gives it back with GiveSlabs.
func TakeSlabs() *Slabs {
	free.Lock()
	defer free.Unlock()
	if n := len(free.stores); n > 0 {
		s := free.stores[n-1]
		free.stores[n-1], free.stores = nil, free.stores[:n-1]
		return s
	}
	return new(Slabs)
}

// GiveSlabs clears s and returns it to the free list, which keeps the
// GOMAXPROCS latest; nothing built in s may be read after.
func GiveSlabs(s *Slabs) {
	s.Begin()
	free.Lock()
	defer free.Unlock()
	free.stores = append(free.stores, s)
	if over := len(free.stores) - runtime.GOMAXPROCS(0); over > 0 {
		clear(free.stores[:over])
		free.stores = free.stores[over:]
	}
}
