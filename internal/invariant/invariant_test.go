package invariant

import (
	"strings"
	"testing"

	"ftnoc/internal/link"
	"ftnoc/internal/trace"
)

func inject(c *Checker, cycle, pid uint64, src, dst int32) {
	c.Emit(trace.Event{Cycle: cycle, Kind: trace.FlitInjected, Node: src, Port: -1, VC: -1, PID: pid, Aux: uint64(dst)})
}

func eject(c *Checker, cycle, pid uint64, node int32) {
	c.Emit(trace.Event{Cycle: cycle, Kind: trace.FlitEjected, Node: node, Port: -1, VC: 0, PID: pid})
}

func firstCheck(c *Checker) string {
	if len(c.Violations()) == 0 {
		return ""
	}
	return c.Violations()[0].Check
}

func TestLedgerCleanRoundTrip(t *testing.T) {
	c := New(Config{})
	inject(c, 10, 1, 0, 5)
	inject(c, 12, 2, 3, 7)
	eject(c, 40, 1, 5)
	eject(c, 44, 2, 7)
	c.Finalize(100, true, nil)
	if err := c.Err(); err != nil {
		t.Fatalf("clean round trip: %v", err)
	}
	injected, ejected, dropped, events := c.Stats()
	if injected != 2 || ejected != 2 || dropped != 0 || events != 4 {
		t.Fatalf("stats = %d/%d/%d/%d, want 2/2/0/4", injected, ejected, dropped, events)
	}
}

func TestLedgerVanishedPacket(t *testing.T) {
	c := New(Config{})
	inject(c, 10, 1, 0, 5)
	c.Finalize(100, true, nil)
	if c.Total() != 1 || firstCheck(c) != "conservation" {
		t.Fatalf("vanished packet not flagged: total=%d first=%q", c.Total(), firstCheck(c))
	}
	if !strings.Contains(c.Err().Error(), "vanished") {
		t.Fatalf("error does not name the failure: %v", c.Err())
	}
}

func TestLedgerResidentPacketIsAccounted(t *testing.T) {
	c := New(Config{})
	inject(c, 10, 1, 0, 5)
	c.Finalize(100, true, map[uint64]bool{1: true})
	if err := c.Err(); err != nil {
		t.Fatalf("resident packet misreported: %v", err)
	}
}

func TestLedgerUncleanRunSkipsConservation(t *testing.T) {
	c := New(Config{})
	inject(c, 10, 1, 0, 5)
	c.Finalize(100, false, nil)
	if err := c.Err(); err != nil {
		t.Fatalf("stalled run misreported: %v", err)
	}
}

func TestLedgerTerminalDropAccounts(t *testing.T) {
	for _, reason := range []uint64{trace.DropStray, trace.DropWormhole, trace.DropSALost, trace.DropCorrupt, trace.DropEvicted} {
		c := New(Config{})
		inject(c, 10, 1, 0, 5)
		c.Emit(trace.Event{Cycle: 20, Kind: trace.FlitDropped, Node: 2, Port: 1, VC: 0, PID: 1, Aux: reason})
		c.Finalize(100, true, nil)
		if err := c.Err(); err != nil {
			t.Fatalf("reason %d: terminally dropped packet misreported: %v", reason, err)
		}
	}
}

func TestLedgerTransientDropDoesNotAccount(t *testing.T) {
	for _, reason := range []uint64{trace.DropWindow, trace.DropNACK, trace.DropMisroute} {
		c := New(Config{})
		inject(c, 10, 1, 0, 5)
		c.Emit(trace.Event{Cycle: 20, Kind: trace.FlitDropped, Node: 2, Port: 1, VC: 0, PID: 1, Aux: reason})
		c.Finalize(100, true, nil)
		if c.Total() != 1 {
			t.Fatalf("reason %d: transient drop wrongly closed the ledger (total=%d)", reason, c.Total())
		}
	}
}

func TestLedgerEjectionValidity(t *testing.T) {
	t.Run("never-injected", func(t *testing.T) {
		c := New(Config{})
		eject(c, 40, 9, 5)
		if c.Total() != 1 || firstCheck(c) != "conservation" {
			t.Fatalf("ghost ejection not flagged: total=%d", c.Total())
		}
	})
	t.Run("double-ejection", func(t *testing.T) {
		c := New(Config{})
		inject(c, 10, 1, 0, 5)
		eject(c, 40, 1, 5)
		eject(c, 41, 1, 5)
		if c.Total() != 1 {
			t.Fatalf("double ejection not flagged: total=%d", c.Total())
		}
	})
	t.Run("wrong-destination", func(t *testing.T) {
		c := New(Config{})
		inject(c, 10, 1, 0, 5)
		eject(c, 40, 1, 6)
		if c.Total() != 1 {
			t.Fatalf("misdelivery not flagged: total=%d", c.Total())
		}
	})
	t.Run("duplicate-pid", func(t *testing.T) {
		c := New(Config{})
		inject(c, 10, 1, 0, 5)
		inject(c, 11, 1, 2, 6)
		if c.Total() != 1 {
			t.Fatalf("duplicate injection not flagged: total=%d", c.Total())
		}
	})
}

func TestMonotonicity(t *testing.T) {
	c := New(Config{})
	inject(c, 50, 1, 0, 5)
	inject(c, 40, 2, 1, 6) // time went backwards
	if c.Total() != 1 || firstCheck(c) != "monotonic" {
		t.Fatalf("non-monotonic cycle not flagged: total=%d first=%q", c.Total(), firstCheck(c))
	}
}

func TestRetransmissionBound(t *testing.T) {
	c := New(Config{})
	nack := trace.Event{Cycle: 10, Kind: trace.NACKSent, Node: 1, Port: 0, VC: 0, Aux: uint64(link.NACKLinkError)}
	retrans := trace.Event{Cycle: 11, Kind: trace.Retransmit, Node: 0, Port: 2, VC: 0, PID: 4}
	c.Emit(nack)
	for i := 0; i < link.NACKWindow; i++ {
		c.Emit(retrans)
	}
	if c.Total() != 0 {
		t.Fatalf("%d retransmits after 1 NACK wrongly flagged: %v", link.NACKWindow, c.Err())
	}
	c.Emit(retrans) // 4th replay from a single 3-deep drain is impossible
	if c.Total() != 1 || firstCheck(c) != "retrans-bound" {
		t.Fatalf("retransmission bound not enforced: total=%d first=%q", c.Total(), firstCheck(c))
	}
	// Non-link-error NACKs (misroute reports) must not widen the bound.
	c2 := New(Config{})
	c2.Emit(trace.Event{Cycle: 10, Kind: trace.NACKSent, Node: 1, Port: 0, VC: 0, Aux: uint64(link.NACKMisroute)})
	c2.Emit(retrans)
	if c2.Total() != 1 {
		t.Fatalf("retransmit without link-error NACK not flagged: total=%d", c2.Total())
	}
}

func TestRecoveryLiveness(t *testing.T) {
	t.Run("paired-episode", func(t *testing.T) {
		c := New(Config{})
		c.Emit(trace.Event{Cycle: 100, Kind: trace.RecoveryBegin, Node: 3, Port: -1, VC: -1})
		c.Emit(trace.Event{Cycle: 180, Kind: trace.RecoveryEnd, Node: 3, Port: -1, VC: -1})
		c.CheckEpisodes(10_000)
		c.Finalize(20_000, true, nil)
		if err := c.Err(); err != nil {
			t.Fatalf("paired episode misreported: %v", err)
		}
	})
	t.Run("double-begin", func(t *testing.T) {
		c := New(Config{})
		c.Emit(trace.Event{Cycle: 100, Kind: trace.RecoveryBegin, Node: 3, Port: -1, VC: -1})
		c.Emit(trace.Event{Cycle: 120, Kind: trace.RecoveryBegin, Node: 3, Port: -1, VC: -1})
		if c.Total() != 1 || firstCheck(c) != "recovery-liveness" {
			t.Fatalf("double begin not flagged: total=%d", c.Total())
		}
	})
	t.Run("end-without-begin", func(t *testing.T) {
		c := New(Config{})
		c.Emit(trace.Event{Cycle: 100, Kind: trace.RecoveryEnd, Node: 3, Port: -1, VC: -1})
		if c.Total() != 1 {
			t.Fatalf("unpaired end not flagged: total=%d", c.Total())
		}
	})
	t.Run("livelock-bound", func(t *testing.T) {
		c := New(Config{RecoveryBound: 1000})
		c.Emit(trace.Event{Cycle: 100, Kind: trace.RecoveryBegin, Node: 3, Port: -1, VC: -1})
		c.CheckEpisodes(900)
		if c.Total() != 0 {
			t.Fatalf("episode inside bound wrongly flagged: %v", c.Err())
		}
		c.CheckEpisodes(1200)
		if c.Total() != 1 {
			t.Fatalf("livelocked episode not flagged: total=%d", c.Total())
		}
		// Re-armed: the same episode reports again only after another full
		// bound, not on every subsequent audit.
		c.CheckEpisodes(1300)
		if c.Total() != 1 {
			t.Fatalf("livelock re-reported every audit: total=%d", c.Total())
		}
	})
	t.Run("open-at-finalize", func(t *testing.T) {
		c := New(Config{})
		c.Emit(trace.Event{Cycle: 100, Kind: trace.RecoveryBegin, Node: 3, Port: -1, VC: -1})
		c.Finalize(5000, true, nil)
		if c.Total() != 1 {
			t.Fatalf("episode open at end of run not flagged: total=%d", c.Total())
		}
	})
}

func TestViolationLimitAndCallback(t *testing.T) {
	var seen int
	c := New(Config{Limit: 3, OnViolation: func(Violation) { seen++ }})
	for pid := uint64(1); pid <= 10; pid++ {
		eject(c, pid, pid, 0) // ten ghost ejections
	}
	if len(c.Violations()) != 3 {
		t.Fatalf("recorded %d violations, cap is 3", len(c.Violations()))
	}
	if c.Total() != 10 || seen != 10 {
		t.Fatalf("total=%d callback=%d, want 10/10", c.Total(), seen)
	}
	if !strings.Contains(c.Err().Error(), "10 invariant violations") {
		t.Fatalf("summary error wrong: %v", c.Err())
	}
}

func TestViolationErrorRendering(t *testing.T) {
	v := Violation{Check: "credits", Cycle: 42, Node: 3, Port: 1, VC: 2, PID: 9, Msg: "leak"}
	s := v.Error()
	for _, want := range []string{"credits", "cycle 42", "node 3", "port 1", "vc 2", "pid 9", "leak"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation text %q missing %q", s, want)
		}
	}
	// Unattributable fields stay out of the text.
	v2 := Violation{Check: "monotonic", Cycle: 7, Node: -1, Port: -1, VC: -1, Msg: "x"}
	if s2 := v2.Error(); strings.Contains(s2, "node") || strings.Contains(s2, "port") {
		t.Errorf("unattributable violation leaked placeholder fields: %q", s2)
	}
}

// The mask-soundness law is one-way: a clear bit over a busy port is a
// violation carrying cycle, node and port; a set bit over an idle port is
// only a wasted poll.
func TestCheckPortMarks(t *testing.T) {
	busy := PortMarks{Flits: 1, NACKs: 2, Replay: 4}
	cases := []struct {
		name  string
		marks PortMarks
		want  []string // substrings, one per expected violation, in order
	}{
		{"idle port, bits clear", PortMarks{}, nil},
		{"idle port, bits set", PortMarks{RxPending: true, TxPending: true, TxReplay: true}, nil},
		{"busy port, bits set", PortMarks{RxPending: true, TxPending: true, TxReplay: true, Flits: 1, NACKs: 2, Replay: 4}, nil},
		{"flit behind a clear rxPending", PortMarks{TxPending: true, TxReplay: true, Flits: busy.Flits}, []string{"rxPending clear with 1 flit"}},
		{"NACK behind a clear txPending", PortMarks{RxPending: true, NACKs: busy.NACKs}, []string{"txPending clear with 2 NACK"}},
		{"replay behind a clear txReplay", PortMarks{RxPending: true, Replay: busy.Replay}, []string{"txReplay clear with 4 flit"}},
		{"everything dropped", busy, []string{"rxPending", "txPending", "txReplay"}},
	}
	for _, tc := range cases {
		c := New(Config{})
		c.CheckPortMarks(77, 5, 2, tc.marks)
		got := c.Violations()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d violations %v, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, v := range got {
			if v.Check != "port-masks" || v.Cycle != 77 || v.Node != 5 || v.Port != 2 || !strings.Contains(v.Msg, tc.want[i]) {
				t.Errorf("%s: violation %d = %+v, want port-masks at cycle 77 node 5 port 2 mentioning %q", tc.name, i, v, tc.want[i])
			}
		}
	}
}

// The replay law counts NACK drops of one (PID, Seq) per hop VC in a row:
// a drop of another flit, or on another VC, starts its own run, and a
// run past ReplayLimit is reported once, naming the hop, VC and packet.
func TestReplayLaw(t *testing.T) {
	c := New(Config{})
	nack := func(cycle, pid uint64, seq uint8, vc int8) {
		c.Emit(trace.Event{Cycle: cycle, Kind: trace.FlitDropped, Node: 3, Port: 1, VC: vc, PID: pid, Seq: seq, Aux: trace.DropNACK})
	}
	cycle := uint64(0)
	for i := 0; i < ReplayLimit; i++ {
		cycle++
		nack(cycle, 7, 2, 0)
		nack(cycle, 7, 2, 1) // the same flit id on another VC is another run
	}
	nack(cycle+1, 7, 3, 0) // another flit resets VC 0's run
	for i := 0; i < ReplayLimit; i++ {
		nack(cycle+2, 7, 2, 0)
	}
	if c.Total() != 0 {
		t.Fatalf("runs of at most %d NACKs reported: %v", ReplayLimit, c.Violations())
	}
	for i := 0; i < 3; i++ {
		nack(cycle+3, 7, 2, 0)
	}
	v := c.Violations()
	if c.Total() != 1 || v[0].Check != "replay" || v[0].Node != 3 || v[0].Port != 1 || v[0].VC != 0 || v[0].PID != 7 {
		t.Fatalf("a run past %d NACKs gave %v, want one replay violation at node 3 port 1 vc 0 pid 7", ReplayLimit, v)
	}
}
