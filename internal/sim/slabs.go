package sim

import "reflect"

// Slabs is a store of construction slabs that a sequence of builds
// shares, so that the second and later builds allocate nothing for them.
// Every batch constructor takes its slices from Make; a build in a store
// gets back the previous build's slabs, cleared, wherever they are large
// enough.
//
// Slots are keyed by element type and ordinal: the k-th Make of element
// type T in a build is handed the k-th slab of type T the previous builds
// recorded. A build that makes an extra slab of one type (a mortality
// point's controller, say) therefore shifts only later slabs of that type,
// never those of any other.
//
// Whatever a build made from a store is dead once the store builds again:
// its slices are handed out afresh. Results that outlive a build must be
// copied out of its slabs. A store is not safe for concurrent builds; a
// pool gives each worker its own. The zero value is an empty store, and a
// nil *Slabs means plain make.
type Slabs struct {
	kinds map[reflect.Type]*slabKind
}

// slabKind is the slabs of one element type, in ordinal order. Each is a
// []T boxed once, when recorded, so reusing it allocates nothing.
type slabKind struct {
	slabs []any
	next  int // ordinal of the current build's next Make of this type
}

// Begin starts a build: ordinals restart from zero, and every slab the
// previous build was handed is up for reuse. A no-op on a nil store.
func (s *Slabs) Begin() {
	if s == nil {
		return
	}
	for _, k := range s.kinds {
		k.next = 0
	}
}

// Make returns a zeroed []T of length and capacity n. With a nil store it
// is make([]T, n). Otherwise it is this build's next slab of type T: the
// previous builds' slab in that slot, cleared, if it holds n elements,
// else a new one recorded in its place.
func Make[T any](s *Slabs, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	t := reflect.TypeFor[T]()
	k := s.kinds[t]
	if k == nil {
		if s.kinds == nil {
			s.kinds = make(map[reflect.Type]*slabKind)
		}
		k = &slabKind{}
		s.kinds[t] = k
	}
	i := k.next
	k.next++
	if i < len(k.slabs) {
		if slab := k.slabs[i].([]T); cap(slab) >= n {
			clear(slab)
			return slab[:n:n]
		}
	}
	slab := make([]T, n)
	if i < len(k.slabs) {
		k.slabs[i] = slab
	} else {
		k.slabs = append(k.slabs, slab)
	}
	return slab
}
