package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSubmitErrorMessages holds the 400 path to more than its status
// code: the body must be the JSON error document with a message that
// names the actual problem, because the daemon's clients (and humans
// with curl) debug their specs from it.
func TestSubmitErrorMessages(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer shutdownNow(t, s)

	cases := []struct {
		name    string
		body    string
		mention string // substring the error message must contain
	}{
		{"malformed json", `{"seeds": `, "decoding spec"},
		{"unknown field", `{"bogus": 1}`, "bogus"},
		{"bad routing name", `{"routings": ["zigzag"]}`, "zigzag"},
		{"bad pattern name", `{"patterns": ["QQ"]}`, "QQ"},
		{"bad size string", `{"sizes": ["4by4"]}`, "4by4"},
		{"invalid point", `{"base": {"Width": 4, "Height": 4}, "injection_rates": [1.5]}`, "InjectionRate"},
		{"negative workers", `{"workers": -1}`, "Workers"},
		{"removed kernel", `{"kernel": "event"}`, `unknown field "kernel"`},
		{"removed kernel knob", `{"kernel_workers": 2}`, "kernel_workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error content-type %q", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body not the JSON error document: %v", err)
			}
			if !strings.Contains(body.Error, tc.mention) {
				t.Fatalf("error %q does not mention %q", body.Error, tc.mention)
			}
		})
	}
}

// TestCancelBeforeStart cancels a job that is still queued behind a
// running one: it must land in canceled having never started, the
// worker must skip it entirely, and the job ahead of it must finish
// undisturbed.
func TestCancelBeforeStart(t *testing.T) {
	g := newStubRunner()
	s := newServer(Options{Workers: 1, QueueDepth: 4}, g.run)
	ts := httptest.NewServer(s)
	defer ts.Close()

	srRun, _ := postSpec(t, ts, tinySpecBody(1))
	<-g.started // the lone worker holds job A
	srQueued, _ := postSpec(t, ts, tinySpecBody(2))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+srQueued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job = %d, want 202", resp.StatusCode)
	}

	st := waitState(t, ts, srQueued.ID, StateCanceled)
	if st.Started != "" {
		t.Fatalf("canceled-before-start job reports a start time: %+v", st)
	}

	// The worker must not run the canceled job once A releases.
	close(g.release)
	waitState(t, ts, srRun.ID, StateDone)
	select {
	case seed := <-g.started:
		t.Fatalf("canceled job still ran (seed %s)", seed)
	case <-time.After(200 * time.Millisecond):
	}
	shutdownNow(t, s)
}

// TestSSEDisconnectMidStream bounds the cost of rude clients: SSE
// subscribers that vanish mid-stream must not strand server goroutines.
// goleak is unavailable (no external dependencies), so the bound is a
// direct runtime.NumGoroutine envelope around repeated connect/drop
// cycles against a still-running job.
func TestSSEDisconnectMidStream(t *testing.T) {
	g := newStubRunner()
	s := newServer(Options{Workers: 1}, g.run)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr, _ := postSpec(t, ts, tinySpecBody(1))
	<-g.started

	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/campaigns/"+sr.ID+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read the SSE preamble so the subscriber is genuinely attached,
		// then drop the connection mid-stream.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("connect %d: no preamble: %v", i, err)
		}
		cancel()
		resp.Body.Close()
	}
	http.DefaultClient.CloseIdleConnections()

	// Every dropped subscriber's goroutine must unwind; allow slack for
	// the server's own steady-state machinery.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("dropped SSE clients leaked goroutines: %d > baseline %d:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The job itself is unharmed: it still completes and a fresh,
	// well-behaved subscriber still gets the terminal event.
	close(g.release)
	waitState(t, ts, sr.ID, StateDone)
	names, _ := consumeSSE(t, ts, sr.ID)
	if len(names) == 0 || names[len(names)-1] != string(StateDone) {
		t.Fatalf("post-disconnect subscriber events = %v", names)
	}
	shutdownNow(t, s)
}
