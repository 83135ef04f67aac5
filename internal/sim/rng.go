package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**). Every stochastic decision in the simulator — traffic
// injection, destination selection, fault injection — draws from an RNG
// seeded explicitly by the caller, so a simulation run is a pure function
// of its configuration. The zero value is not usable; construct with
// NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-distributed internal state even for small or
// correlated seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r's state from seed via splitmix64.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent generator from r. It is used to give each
// component (per-link fault injectors, per-node traffic sources) its own
// stream so that changing one component's draw count does not perturb the
// others.
func (r *RNG) Split() *RNG { return &r.SplitN(nil, 1)[0] }

// SplitN derives n independent generators from r in one slab from s
// (Make): stream i is the one the (i+1)-th of n successive Split calls
// would return, so a batch of components can draw from a slab of
// streams.
func (r *RNG) SplitN(s *Slabs, n int) []RNG {
	rs := Make[RNG](s, n)
	for i := range rs {
		rs[i].seed(r.Uint64())
	}
	return rs
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
