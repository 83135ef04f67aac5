package link

import (
	"fmt"
	"strings"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
)

// Protection selects the link-error handling scheme compared in Fig. 5.
// A scheme is its entry in the policy table below, which is the only
// place the simulator asks which scheme is running.
type Protection uint8

// Link protection schemes.
const (
	HBH Protection = iota + 1 // the paper's flit-based hop-by-hop scheme (§3.1)
	E2E                       // end-to-end baseline: data checked at the destination
	FEC                       // forward error correction at each hop, end-to-end beyond it
)

// String implements fmt.Stringer.
func (p Protection) String() string {
	if p < HBH || p > FEC {
		return "unknown"
	}
	return policies[p].name
}

// ParseProtection maps a protection name (hbh, e2e, fec —
// case-insensitive) to its Protection.
func ParseProtection(s string) (Protection, error) {
	for p := HBH; p <= FEC; p++ {
		if strings.EqualFold(s, policies[p].name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protection %q (want hbh, e2e or fec)", s)
}

// Kind is the class of flit a protection policy tells apart.
type Kind uint8

// Flit kinds.
const (
	KindControl Kind = iota // probes and activations: hop-local, unbuffered
	KindHead                // carries the route
	KindData                // body and tail: payload only
	numKinds
)

// KindOf returns the policy kind of a flit type.
func KindOf(t flit.Type) Kind {
	switch t {
	case flit.Head:
		return KindHead
	case flit.Body, flit.Tail:
		return KindData
	}
	return KindControl
}

// Site is where a flit's codeword is checked.
type Site uint8

// Checking sites.
const (
	SiteHop  Site = iota // every link receiver, the PE's ejection link included
	SiteDest             // the destination PE's end check
	numSites
)

// Action is what a checking site does with one ECC outcome.
type Action uint8

// Actions. A destination only accepts, corrects, passes unchecked or
// condemns; the others are hop actions.
const (
	Accept        Action = iota + 1 // keep the flit as it arrived
	Correct                         // keep it with its single-bit error repaired
	Retransmit                      // drop it and NACK, so the hop's shifter replays it
	PassUnchecked                   // keep it undecoded, whatever it carries
	PassCorrupt                     // keep the detected error for the destination
	Drop                            // discard it; its sender's timer retries
	Condemn                         // mark its packet corrupt
)

// row is one (kind, site)'s action for each ecc.Outcome, indexed by
// outcome-1: OK, Corrected, Detected.
type row [ecc.Detected]Action

// unchecked is the row of a site that never decodes a kind.
var unchecked = row{PassUnchecked, PassUnchecked, PassUnchecked}

// policies is the protection policy table (DESIGN.md §3): each scheme's
// name, its action per (kind, site, outcome), and whether its sources
// retain a copy of every packet for end-to-end retransmission. Every
// scheme checks headers at every hop, as the paper (following [1])
// prescribes for both baselines, so a corrupted header never misroutes.
var policies = [...]struct {
	name   string
	act    [numKinds][numSites]row
	retain bool
}{
	HBH: {name: "HBH", act: [numKinds][numSites]row{
		KindControl: {SiteHop: {Accept, Correct, Drop}, SiteDest: unchecked},
		KindHead:    {SiteHop: {Accept, Correct, Retransmit}, SiteDest: unchecked},
		KindData:    {SiteHop: {Accept, Correct, Retransmit}, SiteDest: {Accept, Correct, Condemn}},
	}},
	E2E: {name: "E2E", retain: true, act: [numKinds][numSites]row{
		KindControl: {SiteHop: {Accept, Correct, Drop}, SiteDest: unchecked},
		KindHead:    {SiteHop: {Accept, Correct, Retransmit}, SiteDest: unchecked},
		KindData:    {SiteHop: unchecked, SiteDest: {Accept, Condemn, Condemn}},
	}},
	FEC: {name: "FEC", retain: true, act: [numKinds][numSites]row{
		KindControl: {SiteHop: {Accept, Correct, Drop}, SiteDest: unchecked},
		KindHead:    {SiteHop: {Accept, Correct, Retransmit}, SiteDest: unchecked},
		KindData:    {SiteHop: {Accept, Correct, PassCorrupt}, SiteDest: {Accept, Correct, Condemn}},
	}},
}

// Decodes reports whether site s runs the decoder on a kind-k flit under
// scheme p.
func (p Protection) Decodes(k Kind, s Site) bool { return policies[p].act[k][s][0] != PassUnchecked }

// Act returns scheme p's action on outcome o of a kind-k flit at site s.
func (p Protection) Act(k Kind, s Site, o ecc.Outcome) Action { return policies[p].act[k][s][o-1] }

// Retains reports whether sources keep a copy of every packet for
// end-to-end retransmission under scheme p.
func (p Protection) Retains() bool { return policies[p].retain }
