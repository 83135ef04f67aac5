// Command nocd is the simulation-as-a-service daemon: it exposes the
// campaign engine over HTTP with a bounded job queue, a
// content-addressed result cache, and live progress streaming.
//
//	nocd -addr :8080 -workers 2 -queue 32 -cache-mb 128
//
// The -role flag scales it out:
//
//	nocd -role coordinator -addr :8080
//	nocd -role worker -coordinator http://host:8080 -addr :0
//
// A coordinator serves the same public API but executes campaigns by
// sharding them across registered workers (see internal/fabric); a
// worker serves shards and heartbeats to its coordinator. The default
// role, single, simulates in-process.
//
// API:
//
//	POST   /v1/campaigns             submit a campaign spec (JSON); 202
//	                                 queued, 200 cache hit / coalesced,
//	                                 429 + Retry-After when the queue is full
//	GET    /v1/campaigns/{id}        status, progress and (when finished) results
//	GET    /v1/campaigns/{id}/events SSE per-point progress + terminal event
//	DELETE /v1/campaigns/{id}        cancel a queued or running campaign
//	GET    /v1/stats                 queue, job and cache counters
//	GET    /healthz                  liveness + build info (503 while draining)
//	GET    /metrics                  Prometheus text-format exposition
//
// SIGTERM/SIGINT drain gracefully: running campaigns get -drain to
// finish, then are canceled and publish their partial results; a second
// signal force-kills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftnoc/internal/fabric"
	"ftnoc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	workers := flag.Int("workers", 1, "campaigns executed concurrently")
	queue := flag.Int("queue", 16, "queued-campaign bound; beyond it submissions get 429")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB")
	retryAfter := flag.Duration("retry-after", 5*time.Second, "Retry-After hint on 429 responses")
	maxJobs := flag.Int("max-jobs", 1024, "finished-job records retained for GET")
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown lets running campaigns finish before canceling them")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	role := flag.String("role", "single", "daemon role: single (simulate in-process), coordinator (dispatch to workers), worker (execute shards)")
	coordinator := flag.String("coordinator", "", "coordinator base URL (worker role; required)")
	name := flag.String("name", "", "worker name (worker role; default <hostname>-<pid>)")
	slots := flag.Int("slots", 1, "concurrent shards this worker advertises (worker role)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (worker role; default derived from the bound address)")
	shardPoints := flag.Int("shard-points", 8, "grid points per dispatched shard (coordinator role)")
	heartbeatTTL := flag.Duration("heartbeat-ttl", 15*time.Second, "worker liveness window (coordinator role)")
	tenantTokens := flag.Int("tenant-tokens", 0, "max in-flight shards per tenant (coordinator role; 0 = uncapped)")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}

	opts := serve.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
		RetryAfter: *retryAfter,
		MaxJobs:    *maxJobs,
		Logger:     logger,
	}
	var coord *fabric.Coordinator
	var worker *fabric.Worker
	switch *role {
	case "single":
	case "coordinator":
		coord = fabric.NewCoordinator(fabric.CoordinatorOptions{
			ShardPoints:  *shardPoints,
			HeartbeatTTL: *heartbeatTTL,
			TenantTokens: *tenantTokens,
			Logger:       logger,
		})
		opts.Runner = coord.Run
		opts.Fabric = coord.Handler()
		opts.ExtraMetrics = coord.Metrics()
	case "worker":
		if *coordinator == "" {
			fatal(errors.New("-role worker requires -coordinator"))
		}
		wname := *name
		if wname == "" {
			host, _ := os.Hostname()
			wname = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		worker = fabric.NewWorker(fabric.WorkerOptions{
			Name:        wname,
			Coordinator: *coordinator,
			Slots:       *slots,
			Logger:      logger,
		})
		opts.Fabric = worker.Handler()
		opts.ExtraMetrics = worker.Metrics()
	default:
		fatal(fmt.Errorf("unknown -role %q (want single, coordinator or worker)", *role))
	}

	srv := serve.New(opts)
	if coord != nil {
		// The server's content-addressed cache doubles as the fabric's
		// shard cache: shard results and whole-campaign results share
		// one byte budget.
		coord.SetCache(srv)
		defer coord.Close()
	}

	// pprof stays off the service mux: profiling endpoints never share a
	// port with the public API, so exposing one cannot expose the other.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "nocd: %s listening on %s (%d workers, queue %d, cache %d MiB)\n",
		*role, ln.Addr(), *workers, *queue, *cacheMB)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}

	// A worker announces itself once it is actually reachable, and keeps
	// heartbeating until shutdown.
	if worker != nil {
		self := *advertise
		if self == "" {
			self = "http://" + reachableHostPort(ln.Addr().String())
		}
		regCtx, regCancel := context.WithCancel(context.Background())
		defer regCancel()
		go worker.RegisterLoop(regCtx, self)
	}

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// First signal: graceful drain. stop() re-arms default signal
	// handling once the context fires, so a second Ctrl-C force-kills
	// instead of being swallowed for the rest of the drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "nocd: shutting down — draining running campaigns (second signal force-kills)")

	// Refuse new jobs and drain campaigns first, so status/SSE requests
	// keep being served until every job has published its terminal state.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nocd:", err)
	}
	cancel()

	// Then close the HTTP side: in-flight responses (including SSE
	// streams, which ended with the jobs' terminal events) get a moment
	// to flush.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "nocd:", err)
	}
	fmt.Fprintln(os.Stderr, "nocd: bye")
}

// reachableHostPort turns a bound listen address into one another
// process can dial: wildcard hosts become loopback. Multi-host fleets
// should pass -advertise instead.
func reachableHostPort(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// newLogger builds the daemon's slog.Logger from the -log-level and
// -log-format flags.
func newLogger(w *os.File, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("nocd: unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("nocd: unknown -log-format %q (want text or json)", format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocd:", err)
	os.Exit(1)
}
