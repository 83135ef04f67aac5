// Package flit defines the unit of flow control in the network: flits,
// the packets they compose, and the control flits (NACKs, deadlock
// probes, activations) used by the fault-tolerance machinery.
//
// Each flit carries a 64-bit content word. For header flits the word packs
// the routing-relevant fields (source, destination, packet ID); for body
// and tail flits it carries payload. The word is what the SEC/DED codec in
// package ecc protects and what link fault injection corrupts, so a
// corrupted header genuinely misroutes unless a protection scheme catches
// it — exactly the failure mode the paper analyses (§3).
package flit

import (
	"fmt"

	"ftnoc/internal/ecc"
)

// checkBits computes the SEC/DED check field for a content word; every
// flit is encoded once, at packetization, and re-encoded only when a
// router legitimately rewrites its word.
func checkBits(w uint64) uint8 { return ecc.Encode(w) }

// Type distinguishes the roles a flit can play. Values start at 1 so the
// zero value is invalid and accidental zero flits are caught early.
type Type uint8

// Flit types. Head opens a wormhole, Body carries payload, Tail closes the
// wormhole. Probe, Activation and NACK are the control flits introduced by
// the paper's deadlock-recovery and retransmission schemes; they travel on
// the same wires as data flits (§3.2.2) and are ECC-protected like any
// other flit.
const (
	Head Type = iota + 1
	Body
	Tail
	Probe
	Activation
	NACK
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "D"
	case Tail:
		return "T"
	case Probe:
		return "P"
	case Activation:
		return "A"
	case NACK:
		return "N"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined flit types.
func (t Type) Valid() bool { return t >= Head && t <= NACK }

// NodeID identifies a node (router + processing element) in the network.
type NodeID uint16

// PacketID uniquely identifies a packet for the lifetime of a simulation.
type PacketID uint64

// Flit is the atomic unit transferred across a link in one cycle.
//
// The struct carries both decoded fields (for fast simulation) and the
// 64-bit content word plus its ECC check bits (for fault modelling). The
// decoded fields of a Head flit are always re-derivable from Word via
// DecodeHeader; after link corruption the receiver must decode from the
// (possibly corrected) word, not trust the cached fields.
type Flit struct {
	// Fields are ordered widest first so the struct packs into 40 bytes:
	// a flit is copied at every buffer write, wire push and shifter
	// capture.

	PID PacketID
	// Word is the 64-bit content: packed header for Head flits, payload
	// otherwise.
	Word uint64
	// InjectedAt is the cycle the packet entered the source queue; used
	// for end-to-end latency accounting.
	InjectedAt uint64
	Src        NodeID
	Dst        NodeID
	// Hops counts completed link traversals, for energy accounting.
	Hops uint16
	Type Type
	// Seq is the flit's index within its packet (0 for the head).
	Seq uint8
	// VC is the virtual-channel identifier the flit travels on for the
	// current link; rewritten hop by hop.
	VC uint8
	// Check holds the SEC/DED check bits computed over Word.
	Check uint8
	// Request marks a flit of an end-to-end retransmission request: the
	// packet-type field of a real header. Like Type and Seq it is
	// sideband that link faults never corrupt, so a request stays a
	// request even when errors past the end check rewrite its payload.
	Request bool
}

// String renders a compact human-readable form, used by trace tests.
func (f Flit) String() string {
	return fmt.Sprintf("%s%d(p%d %d->%d vc%d)", f.Type, f.Seq, f.PID, f.Src, f.Dst, f.VC)
}

// IsData reports whether the flit is part of a data packet (head, body or
// tail) as opposed to a control flit.
func (f Flit) IsData() bool {
	return f.Type == Head || f.Type == Body || f.Type == Tail
}

// Header is the routing-relevant information packed into a head flit's
// content word.
type Header struct {
	Src NodeID
	Dst NodeID
	PID PacketID
}

// Header word layout (bits, LSB first):
//
//	[0,16)  destination node
//	[16,32) source node
//	[32,64) low 32 bits of packet ID
//
// The destination occupies the least-significant bits deliberately: a
// random low-order bit flip is the most intuitive misroute when reading
// traces.
const (
	dstShift = 0
	srcShift = 16
	pidShift = 32
)

// EncodeHeader packs h into a 64-bit word.
func EncodeHeader(h Header) uint64 {
	return uint64(h.Dst)<<dstShift | uint64(h.Src)<<srcShift | (uint64(h.PID)&0xffffffff)<<pidShift
}

// DecodeHeader unpacks a 64-bit word into header fields.
func DecodeHeader(w uint64) Header {
	return Header{
		Dst: NodeID(w >> dstShift & 0xffff),
		Src: NodeID(w >> srcShift & 0xffff),
		PID: PacketID(w >> pidShift & 0xffffffff),
	}
}

// Packet describes a message before packetization into flits.
type Packet struct {
	ID         PacketID
	Src, Dst   NodeID
	Request    bool // an end-to-end retransmission request (Flit.Request)
	Size       int  // flits per packet, including head and tail
	InjectedAt uint64
}

// Flits expands the packet into its constituent flits. The head flit's
// word is the encoded header; body/tail words carry a deterministic
// payload derived from the packet ID and sequence number so that payload
// corruption is observable in tests.
func (p Packet) Flits() []Flit {
	return p.AppendFlits(make([]Flit, 0, p.Size))
}

// AppendFlits appends the packet's flits to dst and returns the extended
// slice, producing exactly the flits Flits would. It lets steady-state
// injectors reuse a per-VC backing array instead of allocating one slice
// per packet.
func (p Packet) AppendFlits(dst []Flit) []Flit {
	if p.Size < 1 {
		panic("flit: packet size must be >= 1")
	}
	for i := 0; i < p.Size; i++ {
		f := Flit{
			Src:        p.Src,
			Dst:        p.Dst,
			PID:        p.ID,
			Seq:        uint8(i),
			InjectedAt: p.InjectedAt,
			Request:    p.Request,
		}
		switch {
		case i == 0:
			f.Type = Head
			f.Word = EncodeHeader(Header{Src: p.Src, Dst: p.Dst, PID: p.ID})
		case i == p.Size-1:
			f.Type = Tail
			f.Word = payloadWord(p.ID, uint8(i))
		default:
			f.Type = Body
			f.Word = payloadWord(p.ID, uint8(i))
		}
		f.Check = checkBits(f.Word)
		dst = append(dst, f)
	}
	return dst
}

// payloadWord derives a deterministic, well-mixed payload for flit seq of
// packet pid.
func payloadWord(pid PacketID, seq uint8) uint64 {
	z := uint64(pid)*0x9e3779b97f4a7c15 + uint64(seq)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PayloadWord exposes the deterministic payload generator so tests and
// receivers can verify end-to-end payload integrity.
func PayloadWord(pid PacketID, seq uint8) uint64 { return payloadWord(pid, seq) }
