package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRegisterLoopAndLiveness runs the real heartbeat loop against a
// coordinator with a short TTL: the worker must show up alive, then go
// stale once its loop stops.
func TestRegisterLoopAndLiveness(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{HeartbeatTTL: 300 * time.Millisecond})
	defer coord.Close()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	w := NewWorker(WorkerOptions{Name: "hb", Coordinator: coordSrv.URL, Slots: 2})
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		w.RegisterLoop(ctx, "http://worker.invalid:0")
	}()

	waitFor(t, func() bool {
		list := coord.WorkerList()
		return len(list) == 1 && list[0].Alive && list[0].Slots == 2
	})

	// The fleet listing is also served over HTTP.
	resp, err := http.Get(coordSrv.URL + PathWorkers)
	if err != nil {
		t.Fatalf("list workers: %v", err)
	}
	var listed []WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatalf("decode worker list: %v", err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].Name != "hb" || !listed[0].Alive {
		t.Fatalf("listing = %+v", listed)
	}

	cancel()
	<-loopDone
	waitFor(t, func() bool { return !coord.WorkerList()[0].Alive })
}

func TestRegisterValidation(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"missing name": `{"url":"http://x","slots":1}`,
		"missing url":  `{"name":"w"}`,
		"not json":     `{{`,
	} {
		resp, err := http.Post(srv.URL+PathWorkers, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestWorkerShardErrors drives the worker's protocol-error paths: bad
// request bodies are plain HTTP errors, a bad range is an in-stream
// error line.
func TestWorkerShardErrors(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "w", SimWorkers: 1})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+PathShards, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}

	resp := post(`not json`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}

	resp = post(`{"job":"j","spec":{"sizes":["notasize"]},"lo":0,"hi":1}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	wire, err := tinySpec().WireJSON()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(ShardRequest{Job: "j", Spec: wire, Lo: 0, Hi: 99})
	resp = post(string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("out-of-range shard: status %d, want streamed error line", resp.StatusCode)
	}
	var line ShardLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatalf("decode error line: %v", err)
	}
	if line.Error == "" {
		t.Fatalf("want error line, got %+v", line)
	}
}
