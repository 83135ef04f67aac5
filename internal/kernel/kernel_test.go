package kernel

import (
	"strings"
	"testing"
)

func TestParseStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("Parse(%q) = %v, want %v", k.String(), got, k)
		}
		if !k.Valid() {
			t.Fatalf("%v.Valid() = false", k)
		}
	}
}

func TestParseCaseAndSpace(t *testing.T) {
	for in, want := range map[string]Kind{
		"Naive":     Naive,
		" NAIVE":    Naive,
		"  event  ": Event,
		"\tEvEnT\n": Event,
	} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
}

// The removed schedulers' names are ordinary unknown input: one line that
// lists what is accepted, never a fallback to event.
func TestParseRejectsUnknown(t *testing.T) {
	for _, in := range []string{"", "fast", "naïve", "event kernel", "naive,event", "quiescent", "parallel", "Parallel "} {
		k, err := Parse(in)
		if err == nil {
			t.Fatalf("Parse(%q) = %v, want error", in, k)
		}
		if msg := err.Error(); !strings.Contains(msg, "want naive or event") || strings.Contains(msg, "\n") {
			t.Fatalf("Parse(%q) error %q does not name the accepted kernels on one line", in, msg)
		}
	}
}

func TestInvalidKindString(t *testing.T) {
	var zero Kind
	if zero.Valid() {
		t.Fatal("zero Kind reports valid")
	}
	if s := Kind(42).String(); !strings.Contains(s, "42") {
		t.Fatalf("out-of-range String() = %q", s)
	}
}
