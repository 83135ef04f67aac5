package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// ChromeTrace exports events in the Chrome trace_event JSON format, so a
// run can be replayed visually in chrome://tracing or Perfetto
// (ui.perfetto.dev → "Open trace file"). The mapping:
//
//   - one "process" per router (pid = node id),
//   - one "thread" per physical port (tid = port + 1; tid 0 is the
//     router-level control thread carrying recovery episodes),
//   - one simulated cycle = 1 µs of trace time,
//   - RecoveryBegin/RecoveryEnd become duration ("B"/"E") events, so a
//     deadlock-recovery episode renders as a span,
//   - every other kind becomes a thread-scoped instant ("i") event with
//     the packet id, VC, sequence number and aux detail in args.
//
// Campaign span kinds (CampaignBegin … CampaignRepEnd) are timeline
// events rather than simulation events: their timestamps are wall-clock
// microseconds, and they render on three dedicated processes far above
// any router id — CampaignLanePID holds the campaign-wide span,
// PointLanePID one thread per grid point (stragglers appear as the long
// lanes), and WorkerLanePID one thread per pool worker (gaps are idle
// workers). A replicate's B event carries its point, replicate index and
// seed in args; its E event the point, simulated cycles and terminal
// status.
//
// Process and thread names are emitted lazily as metadata events the
// first time a (node) or (node, port) appears; override the generic
// labels with ProcessName / ThreadName before the first event.
type ChromeTrace struct {
	// ProcessName, when non-nil, labels a router's process (e.g.
	// "router 12 (4,1)").
	ProcessName func(node int) string
	// ThreadName, when non-nil, labels a port's thread (e.g. "port E").
	ThreadName func(port int) string

	w       *bufio.Writer
	buf     []byte
	err     error
	first   bool
	procs   map[int32]bool
	threads map[int64]bool
	lanes   map[int64]bool // campaign timeline (pid, tid) pairs already named
}

// Campaign timeline process ids (see the type comment). They sit far
// above any realistic router id so a mixed trace cannot collide.
const (
	CampaignLanePID = 1 << 20
	PointLanePID    = 1<<20 + 1
	WorkerLanePID   = 1<<20 + 2
)

// NewChromeTrace creates a Chrome trace_event exporter writing to w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	c := &ChromeTrace{
		w:       bufio.NewWriterSize(w, 1<<16),
		buf:     make([]byte, 0, 256),
		first:   true,
		procs:   make(map[int32]bool),
		threads: make(map[int64]bool),
		lanes:   make(map[int64]bool),
	}
	c.writeString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return c
}

func (c *ChromeTrace) writeString(s string) {
	if c.err != nil {
		return
	}
	if _, err := c.w.WriteString(s); err != nil {
		c.err = err
	}
}

func (c *ChromeTrace) sep() {
	if c.first {
		c.first = false
		c.writeString("\n")
	} else {
		c.writeString(",\n")
	}
}

// meta emits process/thread-name metadata the first time an identity is
// seen.
func (c *ChromeTrace) meta(node int32, port int8) {
	if !c.procs[node] {
		c.procs[node] = true
		name := fmt.Sprintf("router %d", node)
		if c.ProcessName != nil {
			name = c.ProcessName(int(node))
		}
		c.sep()
		c.writeString(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, node, strconv.Quote(name)))
	}
	tid := int64(port) + 1
	key := int64(node)<<8 | tid
	if !c.threads[key] {
		c.threads[key] = true
		name := "control"
		if port >= 0 {
			name = fmt.Sprintf("port %d", port)
			if c.ThreadName != nil {
				name = c.ThreadName(int(port))
			}
		}
		c.sep()
		c.writeString(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, node, tid, strconv.Quote(name)))
	}
}

// laneMeta names a campaign timeline (pid, tid) pair the first time it
// appears.
func (c *ChromeTrace) laneMeta(pid, tid int64, process, thread string) {
	key := pid<<32 | tid
	if c.lanes[key] {
		return
	}
	c.lanes[key] = true
	c.sep()
	c.writeString(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, pid, strconv.Quote(process)))
	c.sep()
	c.writeString(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, pid, tid, strconv.Quote(thread)))
}

// emitCampaign renders one campaign span event on its timeline lane.
func (c *ChromeTrace) emitCampaign(e Event) {
	var (
		pid, tid int64
		ph       byte
		name     string
		args     string
	)
	switch e.Kind {
	case CampaignBegin:
		pid, tid, ph = CampaignLanePID, 1, 'B'
		c.laneMeta(pid, tid, "campaign", "schedule")
		name = "campaign"
		args = fmt.Sprintf(`{"points":%d,"reps_total":%d}`, e.Aux, e.Aux2)
	case CampaignEnd:
		pid, tid, ph = CampaignLanePID, 1, 'E'
		name = "campaign"
		args = fmt.Sprintf(`{"reps_run":%d,"aborted":%t}`, e.Aux, e.Aux2 != 0)
	case CampaignPointBegin:
		pid, tid, ph = PointLanePID, int64(e.Aux)+1, 'B'
		c.laneMeta(pid, tid, "points", fmt.Sprintf("point %d", e.Aux))
		name = fmt.Sprintf("point %d", e.Aux)
		args = fmt.Sprintf(`{"point":%d}`, e.Aux)
	case CampaignPointEnd:
		pid, tid, ph = PointLanePID, int64(e.Aux)+1, 'E'
		name = fmt.Sprintf("point %d", e.Aux)
		args = fmt.Sprintf(`{"point":%d,"failed_reps":%d}`, e.Aux, e.Aux2)
	case CampaignRepBegin:
		pid, tid, ph = WorkerLanePID, int64(e.Node)+1, 'B'
		c.laneMeta(pid, tid, "workers", fmt.Sprintf("worker %d", e.Node))
		name = fmt.Sprintf("p%d r%d", e.Aux, e.PID)
		args = fmt.Sprintf(`{"point":%d,"rep":%d,"seed":%d}`, e.Aux, e.PID, e.Aux2)
	case CampaignRepEnd:
		pid, tid, ph = WorkerLanePID, int64(e.Node)+1, 'E'
		status := "ok"
		switch e.Seq {
		case RepStatusError:
			status = "error"
		case RepStatusAborted:
			status = "aborted"
		}
		name = fmt.Sprintf("r%d", e.PID)
		args = fmt.Sprintf(`{"point":%d,"rep":%d,"cycles":%d,"status":%q}`,
			e.Aux, e.PID, e.Aux2, status)
	}
	c.sep()
	c.writeString(fmt.Sprintf(`{"ph":"%c","name":%s,"pid":%d,"tid":%d,"ts":%d,"args":%s}`,
		ph, strconv.Quote(name), pid, tid, e.Cycle, args))
}

// Emit implements Sink.
func (c *ChromeTrace) Emit(e Event) {
	if c.err != nil {
		return
	}
	switch e.Kind {
	case CampaignBegin, CampaignEnd, CampaignPointBegin, CampaignPointEnd,
		CampaignRepBegin, CampaignRepEnd:
		c.emitCampaign(e)
		return
	}
	node := e.Node
	if node < 0 {
		node = -1 // fault accounting and other global events get pid -1
	}
	port := e.Port
	var ph byte
	switch e.Kind {
	case RecoveryBegin:
		ph, port = 'B', -1
	case RecoveryEnd:
		ph, port = 'E', -1
	default:
		ph = 'i'
	}
	c.meta(node, port)
	c.sep()

	b := c.buf[:0]
	b = append(b, `{"ph":"`...)
	b = append(b, ph)
	b = append(b, `","name":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(port)+1, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"args":{"pid":`...)
	b = strconv.AppendUint(b, e.PID, 10)
	b = append(b, `,"vc":`...)
	b = strconv.AppendInt(b, int64(e.VC), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(e.Seq), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendUint(b, e.Aux, 10)
	b = append(b, `}}`...)
	c.buf = b
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
}

// Close terminates the JSON document, flushes it, and returns the first
// write error.
func (c *ChromeTrace) Close() error {
	c.writeString("\n]}\n")
	if err := c.w.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}
