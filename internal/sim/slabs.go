package sim

import (
	"runtime"
	"sync"
	"unsafe"
)

// Slabs is a store of slabs that a sequence of builds shares: a build
// gets back the previous build's slabs (Make, Grow) wherever they are
// large enough, so later builds — and the runs that grow buffers in them
// (Kernel.Slabs) — allocate nothing for them.
//
// The k-th Make of element type T in a build is handed the k-th slab of
// type T recorded before, so an extra slab of one type (a mortality
// point's controller, say) shifts only later slabs of that type. What a
// build made is dead once the store builds again or goes back to the free
// list: results must copy out. A store has one owner at a time (TakeSlabs)
// and must not be copied. The zero value is an empty store; a nil *Slabs
// means plain make.
type Slabs struct {
	slots  []slot     // every recorded slab, in the order first made
	kinds  []cursor   // every element type, in the order first made
	shard1 *Slabs     // what shard 1 of a split kernel grows in (Kernel.Slabs)
	buf    [64]slot   // slots' first array: a build's ~40 slabs fit, unallocated
	kbuf   [48]cursor // kinds' first array
}

// slot is one recorded []T as its first element's address and capacity,
// which unsafe.Slice rebuilds; a type's slots, in order, are its ordinals.
type slot struct {
	k   kind
	p   unsafe.Pointer
	n   int
	ask int // the length this build asked; -1 if not handed out (then zero)
}

// cursor is where an element type's next Make looks for its slot: no slot
// of the type before at is free in this build, so the type's Makes pass
// each slot at most once per build.
type cursor struct {
	k  kind
	at int
}

// kind is an element type T as a kindOf[T], which clears a slab of it
// and knows its size; being zero-sized, it boxes without allocating.
type kind interface {
	clear(p unsafe.Pointer, n int)
	size() uintptr
}

type kindOf[T any] struct{}

func (kindOf[T]) clear(p unsafe.Pointer, n int) { clear(unsafe.Slice((*T)(p), n)) }
func (kindOf[T]) size() uintptr                 { var t T; return unsafe.Sizeof(t) }

// Begin starts a build: ordinals restart from zero, and the slabs the
// previous build was handed are cleared for reuse, or released when they
// hold more than 4x what that build asked of them, so one large build
// does not inflate every smaller one after it. A slab the previous build
// did not touch is kept. A no-op on a nil store.
func (s *Slabs) Begin() {
	if s == nil {
		return
	}
	for i := range s.slots {
		switch sl := &s.slots[i]; {
		case sl.ask < 0:
		case sl.n > 4*sl.ask:
			sl.p, sl.n = nil, 0
		default:
			sl.k.clear(sl.p, sl.n)
		}
		s.slots[i].ask = -1
	}
	for i := range s.kinds {
		s.kinds[i].at = 0
	}
	s.shard1.Begin()
}

// Bytes returns the size of the slabs s keeps, shard 1's store's
// included; zero for a nil store.
func (s *Slabs) Bytes() (b int) {
	if s != nil {
		b = s.shard1.Bytes()
		for _, sl := range s.slots {
			b += sl.n * int(sl.k.size()) // n is 0 for a released slab
		}
	}
	return b
}

// Make returns a zeroed []T of length and capacity n. With a nil store it
// is make([]T, n). Otherwise it is this build's next slab of type T: the
// previous builds' slab in that slot if it holds n elements, else a new
// one recorded in its place.
func Make[T any](s *Slabs, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	k := kind(kindOf[T]{})
	c := s.cursor(k)
	for c.at < len(s.slots) && s.slots[c.at].k != k {
		c.at++
	}
	if c.at == len(s.slots) {
		s.slots = append(s.slots, slot{k: k})
		if len(s.slots) == len(s.buf)+1 {
			clear(s.buf[:]) // the slots moved off buf: its copies would pin their slabs
		}
	}
	sl := &s.slots[c.at]
	c.at, sl.ask = c.at+1, n
	if sl.p == nil || sl.n < n {
		slab := make([]T, n)
		sl.p, sl.n = unsafe.Pointer(unsafe.SliceData(slab)), n
		return slab
	}
	return unsafe.Slice((*T)(sl.p), n)
}

// cursor returns k's cursor, recording k if it is new.
func (s *Slabs) cursor(k kind) *cursor {
	for i := range s.kinds {
		if s.kinds[i].k == k {
			return &s.kinds[i]
		}
	}
	if s.kinds == nil {
		s.slots, s.kinds = s.buf[:0], s.kbuf[:0]
	}
	s.kinds = append(s.kinds, cursor{k: k})
	return &s.kinds[len(s.kinds)-1]
}

// Grow returns buf with room for n more elements: a buf without it moves
// to an array at least twice its size, this build's next slab of its
// element type (Make; a plain make with a nil store). So a slot keeps the
// largest size any run grew it to, and a repeated run allocates nothing.
func Grow[T any](s *Slabs, buf []T, n int) []T {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return append(Make[T](s, max(len(buf)+n, 2*cap(buf), 4))[:0], buf...)
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

// GiveSlabs clears s (Begin) and returns it to the free list, which keeps
// the GOMAXPROCS latest; nothing built in s may be read after.
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
