package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
	"ftnoc/internal/traffic"
)

// specWire is the JSON wire form of a Spec — the request body nocd's
// POST /v1/campaigns accepts. Axis enums are spelled as their CLI names
// (routing "xy", pattern "NR", protection "hbh", topology "mesh") rather
// than numeric codes; `base` is a network.Config override document with
// the same semantics as a -config file (absent fields keep NewConfig
// defaults). Sizes may be given as "8x8" strings.
type specWire struct {
	Base           json.RawMessage `json:"base"`
	Sizes          []wireSize      `json:"sizes"`
	Topologies     []string        `json:"topologies"`
	Routings       []string        `json:"routings"`
	Protections    []string        `json:"protections"`
	Patterns       []string        `json:"patterns"`
	LinkErrorRates []float64       `json:"link_error_rates"`
	// Mortalities spells hard-fault schedules in the fault.ParseMortality
	// grammar ("none", "link:3E@1000,router:9@4000", "hazard:1e-3@500-0").
	Mortalities    []string  `json:"mortality_schedules"`
	InjectionRates []float64 `json:"injection_rates"`
	Seeds          int       `json:"seeds"`
	Workers        int       `json:"workers"`
	Invariants     bool      `json:"invariants"`
}

// wireSize accepts either {"width":8,"height":8} or the string "8x8";
// it always marshals as the string form.
type wireSize struct{ Size }

func (w wireSize) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("%dx%d", w.Width, w.Height))
}

func (w *wireSize) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		if _, err := fmt.Sscanf(s, "%dx%d", &w.Width, &w.Height); err != nil {
			return fmt.Errorf("bad size %q (want WxH)", s)
		}
		return nil
	}
	var obj struct {
		Width  int `json:"width"`
		Height int `json:"height"`
	}
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	if err := d.Decode(&obj); err != nil {
		return err
	}
	w.Width, w.Height = obj.Width, obj.Height
	return nil
}

// ParseSpec decodes a campaign spec from its JSON wire form. Unknown
// fields and unknown enum names are errors (the document is untrusted
// client input); the returned Spec still needs the usual per-point
// validation, which Run performs. Progress is a process-local
// attachment, not data, and has no wire representation.
func ParseSpec(data []byte) (Spec, error) {
	var w specWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Spec{}, fmt.Errorf("campaign: decoding spec: %w", err)
	}

	base := network.NewConfig()
	if len(w.Base) > 0 {
		var err error
		if base, err = network.ReadConfig(bytes.NewReader(w.Base)); err != nil {
			return Spec{}, fmt.Errorf("campaign: spec base: %w", err)
		}
	}
	spec := Spec{
		Base:           base,
		LinkErrorRates: w.LinkErrorRates,
		InjectionRates: w.InjectionRates,
		Seeds:          w.Seeds,
		Workers:        w.Workers,
		Invariants:     w.Invariants,
	}
	for _, s := range w.Sizes {
		spec.Sizes = append(spec.Sizes, s.Size)
	}
	for _, name := range w.Topologies {
		k, err := topology.ParseKind(name)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: spec topologies: %w", err)
		}
		spec.Topologies = append(spec.Topologies, k)
	}
	for _, name := range w.Routings {
		a, err := routing.Parse(name)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: spec routings: %w", err)
		}
		spec.Routings = append(spec.Routings, a)
	}
	for _, name := range w.Protections {
		p, err := link.ParseProtection(name)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: spec protections: %w", err)
		}
		spec.Protections = append(spec.Protections, p)
	}
	for _, name := range w.Patterns {
		p, err := traffic.ParsePattern(name)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: spec patterns: %w", err)
		}
		spec.Patterns = append(spec.Patterns, p)
	}
	for _, s := range w.Mortalities {
		m, err := fault.ParseMortality(s)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: spec mortality_schedules: %w", err)
		}
		spec.MortalitySchedules = append(spec.MortalitySchedules, m)
	}
	return spec, nil
}

// WireJSON renders the spec in its ParseSpec wire form — the document a
// distributed coordinator ships to workers. The round trip preserves
// everything that determines results (ParseSpec(WireJSON(s)) has the
// same CanonicalHash as s): the base config travels as its canonical
// JSON, axes as their CLI names. Workers is deliberately dropped: each
// worker sizes its own pool, and results are scheduling-independent.
func (s Spec) WireJSON() ([]byte, error) {
	base, err := s.Base.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("campaign: wire spec base: %w", err)
	}
	w := specWire{
		Base:           base,
		LinkErrorRates: s.LinkErrorRates,
		InjectionRates: s.InjectionRates,
		Seeds:          s.Seeds,
		Invariants:     s.Invariants,
	}
	for _, sz := range s.Sizes {
		w.Sizes = append(w.Sizes, wireSize{sz})
	}
	for _, t := range s.Topologies {
		w.Topologies = append(w.Topologies, t.String())
	}
	for _, r := range s.Routings {
		w.Routings = append(w.Routings, r.String())
	}
	for _, p := range s.Protections {
		w.Protections = append(w.Protections, p.String())
	}
	for _, p := range s.Patterns {
		w.Patterns = append(w.Patterns, p.String())
	}
	for _, m := range s.MortalitySchedules {
		w.Mortalities = append(w.Mortalities, m.String())
	}
	return json.Marshal(w)
}

// CanonicalHash content-addresses the campaign's results: a hex SHA-256
// over the replicate count and every expanded point's validated
// canonical Config. Runs are deterministic and scheduling-independent,
// so two specs with equal hashes produce byte-identical reports —
// Workers, Progress and Invariants deliberately do not contribute
// (checking observes a run; it never changes one). Each point's
// Config embeds Base.Seed (the root of per-replicate seed derivation),
// so the base seed is hashed implicitly. An invalid point makes the
// spec unhashable, mirroring Run's refusal to execute it silently.
func (s Spec) CanonicalHash() (string, error) {
	points := s.Points()
	reps := s.Seeds
	if reps <= 0 {
		reps = 1
	}
	h := sha256.New()
	fmt.Fprintf(h, "ftnoc-campaign-v1 reps=%d points=%d\n", reps, len(points))
	for i := range points {
		if err := points[i].Config.Validate(); err != nil {
			return "", fmt.Errorf("campaign: point %d: %w", i, err)
		}
		cj, err := points[i].Config.CanonicalJSON()
		if err != nil {
			return "", fmt.Errorf("campaign: point %d: %w", i, err)
		}
		h.Write(cj)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// HashRange content-addresses one shard's results: the rows RunRange
// would produce for the grid points in [lo, hi) of an expanded grid
// (points as Spec.Points returns them, reps as Spec.Seeds). Beyond each
// point's canonical Config (which embeds the base seed, the root of
// replicate seed derivation) the hash covers the point's *global* grid
// index, because both the row's point number and its derived seeds
// depend on where the point sits in the full grid — identical configs at
// different grid positions produce different rows. It keys the fabric
// coordinator's shard cache; a caller hashing many ranges of one grid
// expands it once.
func HashRange(points []Point, reps, lo, hi int) (string, error) {
	if lo < 0 || hi > len(points) || lo >= hi {
		return "", fmt.Errorf("campaign: %w: point range [%d,%d) outside grid of %d points",
			network.ErrInvalidConfig, lo, hi, len(points))
	}
	if reps <= 0 {
		reps = 1
	}
	h := sha256.New()
	fmt.Fprintf(h, "ftnoc-shard-v1 reps=%d range=%d:%d\n", reps, lo, hi)
	for i := lo; i < hi; i++ {
		if err := points[i].Config.Validate(); err != nil {
			return "", fmt.Errorf("campaign: point %d: %w", i, err)
		}
		cj, err := points[i].Config.CanonicalJSON()
		if err != nil {
			return "", fmt.Errorf("campaign: point %d: %w", i, err)
		}
		fmt.Fprintf(h, "%d ", points[i].Index)
		h.Write(cj)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
