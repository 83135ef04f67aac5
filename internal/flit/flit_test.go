package flit

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// A flit is copied at every buffer write, wire push and shifter capture;
// the field order keeps it at five words.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Flit{}) = %d, want 40", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Src: 0, Dst: 0, PID: 0},
		{Src: 63, Dst: 0, PID: 1},
		{Src: 0xffff, Dst: 0xffff, PID: 0xffffffff},
		{Src: 12, Dst: 51, PID: 299999},
	}
	for _, h := range cases {
		got := DecodeHeader(EncodeHeader(h))
		if got != h {
			t.Errorf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(src, dst uint16, pid uint32) bool {
		h := Header{Src: NodeID(src), Dst: NodeID(dst), PID: PacketID(pid)}
		return DecodeHeader(EncodeHeader(h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketFlits(t *testing.T) {
	p := Packet{ID: 7, Src: 3, Dst: 42, Size: 4, InjectedAt: 100}
	fs := p.Flits()
	if len(fs) != 4 {
		t.Fatalf("got %d flits, want 4", len(fs))
	}
	if fs[0].Type != Head || fs[1].Type != Body || fs[2].Type != Body || fs[3].Type != Tail {
		t.Fatalf("flit types = %v %v %v %v, want H D D T", fs[0].Type, fs[1].Type, fs[2].Type, fs[3].Type)
	}
	h := DecodeHeader(fs[0].Word)
	if h.Src != 3 || h.Dst != 42 || h.PID != 7 {
		t.Fatalf("head flit header = %+v", h)
	}
	for i, f := range fs {
		if f.Seq != uint8(i) {
			t.Errorf("flit %d has Seq %d", i, f.Seq)
		}
		if f.InjectedAt != 100 || f.PID != 7 || f.Src != 3 || f.Dst != 42 {
			t.Errorf("flit %d metadata wrong: %+v", i, f)
		}
	}
	for i := 1; i < 4; i++ {
		if fs[i].Word != PayloadWord(7, uint8(i)) {
			t.Errorf("flit %d payload word mismatch", i)
		}
	}
}

func TestSingleFlitPacket(t *testing.T) {
	fs := Packet{ID: 1, Src: 0, Dst: 1, Size: 1}.Flits()
	if len(fs) != 1 || fs[0].Type != Head {
		t.Fatalf("single-flit packet = %v", fs)
	}
}

func TestPacketFlitsPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size packet did not panic")
		}
	}()
	Packet{Size: 0}.Flits()
}

func TestTypeValid(t *testing.T) {
	for _, tt := range []Type{Head, Body, Tail, Probe, Activation, NACK} {
		if !tt.Valid() {
			t.Errorf("%v reported invalid", tt)
		}
	}
	if Type(0).Valid() || Type(200).Valid() {
		t.Error("out-of-range type reported valid")
	}
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{Head: "H", Body: "D", Tail: "T", Probe: "P", Activation: "A", NACK: "N"}
	for tt, s := range want {
		if tt.String() != s {
			t.Errorf("%d.String() = %q, want %q", tt, tt.String(), s)
		}
	}
}

func TestIsData(t *testing.T) {
	data := []Type{Head, Body, Tail}
	ctrl := []Type{Probe, Activation, NACK}
	for _, tt := range data {
		if !(Flit{Type: tt}).IsData() {
			t.Errorf("%v.IsData() = false", tt)
		}
	}
	for _, tt := range ctrl {
		if (Flit{Type: tt}).IsData() {
			t.Errorf("%v.IsData() = true", tt)
		}
	}
}

func TestPayloadWordDeterministic(t *testing.T) {
	if PayloadWord(5, 2) != PayloadWord(5, 2) {
		t.Fatal("PayloadWord not deterministic")
	}
	if PayloadWord(5, 2) == PayloadWord(5, 3) || PayloadWord(5, 2) == PayloadWord(6, 2) {
		t.Fatal("PayloadWord collision on adjacent inputs")
	}
}

func TestFlitString(t *testing.T) {
	f := Flit{Type: Head, Seq: 0, PID: 3, Src: 1, Dst: 2, VC: 1}
	if got := f.String(); got != "H0(p3 1->2 vc1)" {
		t.Fatalf("String() = %q", got)
	}
}

// Every flit leaves packetization with valid SEC/DED check bits.
func TestPacketFlitsAreECCClean(t *testing.T) {
	for _, size := range []int{1, 2, 4, 9} {
		for _, f := range (Packet{ID: 77, Src: 1, Dst: 2, Size: size}).Flits() {
			if got := checkBits(f.Word); got != f.Check {
				t.Fatalf("size %d seq %d: check %#x, want %#x", size, f.Seq, f.Check, got)
			}
		}
	}
}
