// Package kernel names the simulation scheduler implementations. The
// choice is pure scheduling policy: both kernels produce byte-identical
// Results (the differential grids in internal/network prove it), so the
// kind is excluded from canonical config JSON and campaign hashes — it
// may change how fast an answer arrives, never the answer.
package kernel

import (
	"fmt"
	"strings"
)

// Kind selects a simulation kernel. The zero value is invalid so that a
// Config which never chose one can be given the default explicitly.
type Kind uint8

const (
	// Naive ticks every actor every cycle — the slow, obviously-correct
	// oracle the event kernel is differentially tested against.
	Naive Kind = iota + 1
	// Event is the calendar-queue discrete-event scheduler: actors are
	// stepped only on cycles where an event is due, and cost scales with
	// events rather than cycles x actors. The default.
	Event
)

// String returns the canonical lower-case name, the exact form Parse
// accepts (Parse ∘ String is the identity; the fuzz suite holds it).
func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Event:
		return "event"
	}
	return fmt.Sprintf("kernel.Kind(%d)", uint8(k))
}

// Valid reports whether k names a real kernel.
func (k Kind) Valid() bool { return k == Naive || k == Event }

// Kinds returns every valid kernel kind in declaration order. Tools that
// enumerate kernels (benchmarks, differential harnesses) iterate this
// rather than hardcoding the list, so a new kernel cannot be missed.
func Kinds() []Kind { return []Kind{Naive, Event} }

// Names renders the accepted kernel names as "naive or event", for error
// and help text. Built from Kinds so the wording cannot drift from what
// Parse accepts.
func Names() string {
	kinds := Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, " or ")
}

// Parse resolves a kernel name (case-insensitive) to one of Kinds.
func Parse(s string) (Kind, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, k := range Kinds() {
		if name == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kernel %q (want %s)", s, Names())
}
