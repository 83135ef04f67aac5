package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/fabric"
	"ftnoc/internal/serve"
)

// cluster is the service_fabric system under test, all in this process:
// a serve.Server on a loopback listener whose Runner is a
// fabric.Coordinator, plus two registered fabric.Workers on listeners of
// their own. Every byte between them crosses real HTTP.
type cluster struct {
	base    string
	client  *http.Client
	srv     *serve.Server
	coord   *fabric.Coordinator
	workers []*fabric.Worker
	servers []*http.Server
	stopReg context.CancelFunc
	wg      sync.WaitGroup // registration loops and listeners

	// rec is the round's recorder while tracing is on; server-side
	// wrappers read it from their own goroutines.
	rec atomic.Pointer[recorder]

	mu      sync.Mutex
	runMs   float64   // the last Coordinator.Run wall
	shardMs []float64 // per worker: shard-handler wall since the last op
}

const (
	clusterWorkers = 2
	shardPoints    = 2
)

func listenLoopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (c *cluster) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	c.servers = append(c.servers, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
}

// startCluster brings the service up and returns once both workers are
// registered and alive; the caller owns close.
func startCluster() (*cluster, error) {
	c := &cluster{client: &http.Client{}, shardMs: make([]float64, clusterWorkers)}
	c.coord = fabric.NewCoordinator(fabric.CoordinatorOptions{ShardPoints: shardPoints})
	c.srv = serve.New(serve.Options{
		Runner: func(ctx context.Context, spec campaign.Spec) (*campaign.Report, error) {
			s := c.rec.Load().begin("Coordinator.Run", "op")
			report, err := c.coord.Run(ctx, spec)
			ms := s.end()
			c.mu.Lock()
			c.runMs = ms
			c.mu.Unlock()
			return report, err
		},
		Fabric:       c.coord.Handler(),
		ExtraMetrics: c.coord.Metrics(),
	})
	c.coord.SetCache(c.srv)
	ln, base, err := listenLoopback()
	if err != nil {
		c.coord.Close()
		return nil, err
	}
	c.base = base
	c.serveOn(ln, c.srv)

	regCtx, stop := context.WithCancel(context.Background())
	c.stopReg = stop
	for i := 0; i < clusterWorkers; i++ {
		i := i
		w := fabric.NewWorker(fabric.WorkerOptions{
			Name: fmt.Sprintf("w%d", i), Coordinator: c.base, Slots: 1, SimWorkers: 1,
		})
		c.workers = append(c.workers, w)
		wln, self, err := listenLoopback()
		if err != nil {
			c.close()
			return nil, err
		}
		inner := w.Handler()
		c.serveOn(wln, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			s := c.rec.Load().begin(fmt.Sprintf("shard@w%d", i), "Coordinator.Run")
			inner.ServeHTTP(rw, r)
			ms := s.end()
			c.mu.Lock()
			c.shardMs[i] += ms
			c.mu.Unlock()
		}))
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.RegisterLoop(regCtx, self)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, wi := range c.coord.WorkerList() {
			if wi.Alive {
				alive++
			}
		}
		if alive == clusterWorkers {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("only %d of %d fabric workers registered", alive, clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops everything startCluster started and waits for it.
func (c *cluster) close() {
	c.stopReg()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.srv.Shutdown(ctx)
	for _, hs := range c.servers {
		_ = hs.Shutdown(ctx)
	}
	c.coord.Close()
	c.client.CloseIdleConnections()
	c.wg.Wait()
}

// exchange performs one HTTP request and returns the body; any status
// outside 2xx is an error (a 429 is a refused op, which counts failed).
func (c *cluster) exchange(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

type submitReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

type statusReply struct {
	State  string            `json:"state"`
	Cached bool              `json:"cached"`
	Error  string            `json:"error"`
	Result []json.RawMessage `json:"result"`
}

// table rebuilds the NDJSON table the server rendered: one row per line.
func (s statusReply) table() []byte {
	var buf bytes.Buffer
	for _, row := range s.Result {
		buf.Write(row)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func (c *cluster) submit(doc []byte) (submitReply, error) {
	var rep submitReply
	b, err := c.exchange(http.MethodPost, "/v1/campaigns", doc)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(b, &rep)
}

func (c *cluster) result(id string) (statusReply, error) {
	var rep statusReply
	b, err := c.exchange(http.MethodGet, "/v1/campaigns/"+id, nil)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, err
	}
	if rep.State != "done" {
		return rep, fmt.Errorf("campaign %s ended %s: %s", id, rep.State, rep.Error)
	}
	return rep, nil
}

// follow reads the job's SSE stream to its terminal event. onFirst runs
// once, mid-job: at the first point-done (or at the opening snapshot or
// terminal event, when progress beat the subscription).
func (c *cluster) follow(id string, onFirst func()) error {
	resp, err := c.client.Get(c.base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	first := sync.OnceFunc(onFirst)
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("SSE stream ended before a terminal event: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "point-done":
				first()
			case "status":
				var snap struct {
					RepsDone int `json:"reps_done"`
				}
				if json.Unmarshal([]byte(line[len("data: "):]), &snap) == nil && snap.RepsDone > 0 {
					first()
				}
			case "done":
				first()
				return nil
			case "failed", "canceled":
				first()
				return fmt.Errorf("campaign %s: %s", event, line[len("data: "):])
			}
		}
	}
}

// serviceOp is the full submit->rows path: POST the spec, follow SSE to
// the first point-done (scraping /metrics once there) and on to the
// terminal event, GET the rows. Then, outside the op's clock, the
// identical spec again: a cache hit whose rows must be the same bytes.
func serviceOp(r *round, variant int) (out opResult) {
	c := r.svc
	doc := gridSpec(r.seed, variant, r.shrink)
	rec := r.rec
	var fresh statusReply
	var acceptMs, getMs, scrapeMs float64
	op := rec.begin("op", "")
	out.WallMs, out.Mallocs, out.AllocBytes = timed(func() {
		s := rec.begin("POST /v1/campaigns", "op")
		sub, err := c.submit(doc)
		acceptMs = s.end()
		if err == nil && sub.Cached {
			err = errors.New("fresh spec was answered from the cache")
		}
		if err != nil {
			out.Err = err
			return
		}
		s = rec.begin("GET events (SSE)", "op")
		err = c.follow(sub.ID, func() {
			out.FirstPointMs = sinceMs(op.start)
			ss := rec.begin("GET /metrics", "GET events (SSE)")
			_, serr := c.exchange(http.MethodGet, "/metrics", nil)
			scrapeMs = ss.end()
			if serr != nil && out.Err == nil {
				out.Err = serr
			}
		})
		s.end()
		if err != nil {
			out.Err = err
			return
		}
		s = rec.begin("GET /v1/campaigns/{id}", "op")
		fresh, err = c.result(sub.ID)
		getMs = s.end()
		if err != nil {
			out.Err = err
		}
	})
	op.end()
	if out.Err != nil {
		return out
	}
	out.Result = fresh.table()
	out.Cycles, out.Err = checkRows(out.Result, gridMessages/r.shrink, rec)

	var cachedPostMs float64
	t0 := time.Now()
	s := rec.begin("POST /v1/campaigns (cached)", "")
	sub, err := c.submit(doc)
	cachedPostMs = s.end()
	if err == nil && !sub.Cached {
		err = errors.New("identical resubmit missed the cache")
	}
	var cached statusReply
	if err == nil {
		s = rec.begin("GET /v1/campaigns/{id} (cached)", "")
		cached, err = c.result(sub.ID)
		s.end()
	}
	out.CachedMs = sinceMs(t0)
	if err == nil && !bytes.Equal(cached.table(), out.Result) {
		err = errors.New("cached rows differ from the fresh rows")
	}
	if err != nil && out.Err == nil {
		out.Err = err
	}

	c.mu.Lock()
	runMs, busiest := c.runMs, 0.0
	for i, ms := range c.shardMs {
		busiest = max(busiest, ms)
		c.shardMs[i] = 0
	}
	c.mu.Unlock()
	rec.add("serve.accept_ms", acceptMs)
	rec.add("serve.result_get_ms", getMs)
	rec.add("serve.cached_post_ms", cachedPostMs)
	rec.add("serve.first_point_ms", out.FirstPointMs)
	rec.add("serve.cached_ms", out.CachedMs)
	rec.add("campaign.points_per_s", gridPoints/(out.WallMs/1e3))
	rec.add("obs.scrape_ms", scrapeMs)
	// What Coordinator.Run spent beyond its busiest worker's shard
	// handlers: dispatch latency, scheduling gaps and the row merge.
	rec.add("fabric.dispatch_overhead_ms", runMs-busiest)
	return out
}

// counters reads the service's cumulative counts from the three places
// an operator would: /v1/stats, /metrics and Coordinator.Metrics(). The
// round diffs two readings to charge the traced ops only.
func (c *cluster) counters() (map[string]float64, error) {
	out := make(map[string]float64)
	b, err := c.exchange(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	out["serve.cache_hits"] = float64(st.Cache.Hits)
	out["serve.cache_misses"] = float64(st.Cache.Misses)

	text, err := c.exchange(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out["serve.queue_wait_ms"] = 1e3 * promSum(text, "nocd_job_queue_wait_seconds_sum", "")
	out["serve.rejected"] = promSum(text, "nocd_http_requests_total", `status="429"`)

	var buf bytes.Buffer
	if err := c.coord.Metrics().WriteText(&buf); err != nil {
		return nil, err
	}
	out["fabric.shards"] = promSum(buf.Bytes(), "nocd_fabric_shards_dispatched_total", "")
	out["fabric.redispatches"] = promSum(buf.Bytes(), "nocd_fabric_shard_retries_total", "")
	for _, w := range c.workers {
		out["fabric.worker_sim_cycles"] += float64(w.SimCycles())
	}
	return out, nil
}

// promSum adds up the samples of one family in a Prometheus text
// exposition, keeping only series whose label set contains label.
func promSum(text []byte, family, label string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		cut := strings.LastIndexByte(line, ' ') // label values may hold spaces
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		base, labels, _ := strings.Cut(line[:cut], "{")
		if base != family || !strings.Contains(labels, label) {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
