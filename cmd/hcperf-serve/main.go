// Command hcperf-serve exposes the experiment registry and scenario
// presets as an HTTP/JSON service: submissions land in a bounded job queue
// worked by a pool, identical requests are deduplicated into one execution
// and served from a content-addressed LRU result cache, and overload sheds
// with 429 + Retry-After instead of queueing unboundedly.
//
// Usage:
//
//	hcperf-serve [-addr :8080] [-workers 4] [-queue 64] [-cache 128] [-store dir] [-drain 10s]
//	             [-rate-limit 0] [-rate-burst 0] [-breaker-error-rate 0.5] [-breaker-cooldown 5s] [-no-breaker]
//	hcperf-serve -version
//
// Endpoints:
//
//	POST /v1/runs                 submit {"experiment":"fig13","seed":1} or
//	                              {"scenario":"carfollow","scheme":"edf","trace":true}
//	GET  /v1/runs/{id}            status + report (append ?series=1 for raw series)
//	GET  /v1/runs/{id}/trace      lifecycle trace (?format=csv or chrome)
//	POST /v1/sweeps               spec template × parameter grid, streamed as SSE
//	GET  /v1/experiments          registry listing
//	GET  /v1/version              build identity
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text exposition
//	GET  /debug/pprof/            runtime profiles
//
// With -store, completed results additionally persist to a disk-backed
// content-addressed store (one file per request digest), so identical
// submissions are served across restarts — and across processes: the store
// format is shared with hcperf-sim -store, so a CLI run pre-warms the
// server's cache and vice versa. Responses carry an X-HCPerf-Cache header
// (miss | memory | disk) naming the tier that answered. An unusable store
// directory logs a warning and degrades to memory-only serving.
//
// The resilience layer sits in front of and behind the queue: with
// -rate-limit, each client (keyed by Authorization: Bearer token, then
// X-API-Key, then remote IP) gets a token bucket on the POST endpoints —
// denials are 429s whose Retry-After is exact refill arithmetic, and every
// response carries X-RateLimit-Limit/Remaining/Reset. A circuit breaker
// (on unless -no-breaker) watches the execute stage's error rate and
// fast-fails fresh executions while open; cache and disk hits keep
// flowing. Both export under /metrics as hcperf_ratelimit_* and
// hcperf_breaker_*.
//
// SIGINT/SIGTERM begins a graceful drain: the listener stops accepting,
// queued and in-flight runs get -drain to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hcperf/internal/policy"
	"hcperf/internal/service"
	"hcperf/internal/store"
	"hcperf/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", service.DefaultWorkers, "execution worker pool size")
		queue       = flag.Int("queue", service.DefaultQueueSize, "submission queue bound (full queue sheds with 429)")
		cache       = flag.Int("cache", service.DefaultCacheSize, "completed-run LRU cache size")
		storeDir    = flag.String("store", "", "disk-backed result store directory (persists across restarts; shared with hcperf-sim -store)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful drain deadline on SIGTERM")
		showVersion = flag.Bool("version", false, "print build identity and exit")

		rateLimit  = flag.Float64("rate-limit", 0, "per-client sustained request rate on POST endpoints, req/s (0 disables)")
		rateBurst  = flag.Float64("rate-burst", 0, "per-client burst allowance (default 2×rate-limit)")
		noBreaker  = flag.Bool("no-breaker", false, "disable the execute-stage circuit breaker")
		brkErrRate = flag.Float64("breaker-error-rate", 0, "error-rate threshold that trips the breaker (default 0.5)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "open-state cooldown before a half-open probe (default 5s)")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	pol := service.PolicyConfig{
		RateLimit: *rateLimit,
		RateBurst: *rateBurst,
		NoBreaker: *noBreaker,
		Breaker:   policy.BreakerConfig{ErrorRate: *brkErrRate, Cooldown: *brkCool},
	}
	if err := run(*addr, *workers, *queue, *cache, *storeDir, *drain, pol); err != nil {
		fmt.Fprintln(os.Stderr, "hcperf-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, workers, queue, cache int, storeDir string, drain time.Duration, pol service.PolicyConfig) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	cfg := service.Config{Workers: workers, QueueSize: queue, CacheSize: cache, Policy: pol}
	if storeDir != "" {
		// A store that cannot be opened (read-only volume, path under a
		// file) costs persistence, not availability: log and serve
		// memory-only.
		d, err := store.OpenDisk(storeDir, 0, nil)
		if err != nil {
			log.Printf("hcperf-serve: %v; continuing memory-only", err)
		} else {
			cfg.Disk = d
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, cfg, drain)
}

// serve runs the service on ln until ctx is cancelled (SIGINT/SIGTERM in
// production, the test harness in tests), then drains within the deadline:
// the listener stops accepting first so no new submissions race the drain,
// then queued and in-flight runs get the remaining budget.
func serve(ctx context.Context, ln net.Listener, cfg service.Config, drain time.Duration) error {
	srv := service.New(cfg)
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		storeInfo := "memory-only"
		if cfg.Disk != nil {
			storeInfo = cfg.Disk.Dir()
		}
		log.Printf("hcperf-serve %s listening on %s (workers=%d queue=%d cache=%d store=%s)",
			version.Get(), ln.Addr(), cfg.Workers, cfg.QueueSize, cfg.CacheSize, storeInfo)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received, draining (deadline %s)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Manager().Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
