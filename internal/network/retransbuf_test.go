package network

import (
	"testing"

	"ftnoc/internal/fault"
)

// §4.5: a soft error inside a retransmission buffer corrupts the stored
// "clean" copy. When a link error then forces a replay, the corrupt copy
// can never satisfy the receiver — an endless retransmission loop that
// wedges the link. The paper's fool-proof fix is duplicate buffers. The
// checker's replay law names the looping hop.
func TestRetransBufFaultsLoopWithoutDuplicates(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.Link = 0.05
	cfg.Faults.LinkDouble = 0.5 // force frequent replays
	cfg.Faults.RetransBuf = 0.3
	cfg.DuplicateRetrans = false
	cfg.StallCycles = 20_000
	cfg.MaxCycles = 100_000
	chk := attachChecker(&cfg)
	res := New(cfg).Run()
	if res.Counters.Undetected[fault.RetransBufError] == 0 {
		t.Fatal("no retransmission-buffer upsets landed")
	}
	// The corrupted copies must visibly damage the run: an endless
	// retransmission loop stalls the affected links.
	if !res.Stalled {
		t.Fatalf("network survived corrupted retransmission copies: %v", res)
	}
	replays := 0
	for _, v := range chk.Violations() {
		if v.Check == "replay" {
			replays++
			if v.Node < 0 || v.Port < 0 || v.VC < 0 || v.PID == 0 {
				t.Errorf("replay violation does not name its hop, VC and packet: %v", v)
			}
		}
	}
	if replays == 0 {
		t.Fatalf("the replay law missed the livelock (%d other violations)", chk.Total())
	}
}

// With the duplicate buffers the same fault rates are fully masked.
func TestRetransBufFaultsMaskedByDuplicates(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.Link = 0.05
	cfg.Faults.LinkDouble = 0.5
	cfg.Faults.RetransBuf = 0.3
	cfg.DuplicateRetrans = true
	chk := attachChecker(&cfg)
	res := New(cfg).Run()
	assertClean(t, "duplicate buffers", chk)
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("duplicate buffers failed to mask: %v", res)
	}
	inj := res.Counters.Injected[fault.RetransBufError]
	cor := res.Counters.Corrected[fault.RetransBufError]
	if inj == 0 || cor != inj {
		t.Fatalf("masking accounting wrong: injected %d corrected %d", inj, cor)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("corruption leaked despite duplicates: %+v", res)
	}
}
