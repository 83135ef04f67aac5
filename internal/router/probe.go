package router

import (
	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// AnyVC in a probe's target field means "any virtual channel of the input
// port": used when the suspected packet is still waiting for VC
// allocation, so the resource it blocks on is the whole downstream port.
const AnyVC = 0xff

// maxProbeHops bounds probe forwarding; a deadlock cycle cannot be longer
// than the node count, so a probe alive past that is stale and dropped.
const maxProbeHops = 255

// probeMsg is the payload of a Probe or Activation control flit: the
// origin of the suspicion (node + the input VC whose packet is blocked)
// and the VC buffer under suspicion at the receiving node (Rule 1 of
// §3.2.2). The origin triple lets Rule 3 validate activations and lets
// the origin recognise its own returning probe.
type probeMsg struct {
	Origin     flit.NodeID
	OriginPort topology.Port
	OriginVC   uint8
	TargetVC   uint8 // VC under suspicion at the receiver, or AnyVC
	Hops       uint8
}

// Probe word layout (bits, LSB first):
//
//	[0,16)  origin node
//	[16,20) origin port
//	[20,28) origin VC
//	[28,36) target VC
//	[36,44) hop count
func encodeProbe(m probeMsg) (word uint64, check uint8) {
	word = uint64(m.Origin) |
		uint64(m.OriginPort&0xf)<<16 |
		uint64(m.OriginVC)<<20 |
		uint64(m.TargetVC)<<28 |
		uint64(m.Hops)<<36
	return word, ecc.Encode(word)
}

func decodeProbe(word uint64) probeMsg {
	return probeMsg{
		Origin:     flit.NodeID(word & 0xffff),
		OriginPort: topology.Port(word >> 16 & 0xf),
		OriginVC:   uint8(word >> 20 & 0xff),
		TargetVC:   uint8(word >> 28 & 0xff),
		Hops:       uint8(word >> 36 & 0xff),
	}
}

// probeKey identifies a probe origin for the Rule 3 "seen before" check.
type probeKey struct {
	origin flit.NodeID
	port   topology.Port
	vc     uint8
}

func (m probeMsg) key() probeKey {
	return probeKey{origin: m.Origin, port: m.OriginPort, vc: m.OriginVC}
}

// probeRecord is a probe-memory entry: the probe seen, and when.
type probeRecord struct {
	key probeKey
	at  uint64
}

// probeFlit wraps a probeMsg into a control flit of the given type.
func probeFlit(t flit.Type, m probeMsg) flit.Flit {
	w, c := encodeProbe(m)
	return flit.Flit{Type: t, Word: w, Check: c}
}
