// Command sigserve is the significance-compression simulation daemon: an
// HTTP service that runs (benchmark × pipeline model) jobs from the paper's
// evaluation on demand, with a bounded worker pool, an LRU result cache,
// singleflight deduplication of concurrent identical requests, a metrics
// registry, and resilience hardening (panic containment, admission control
// with load shedding, retry-with-backoff, and a per-job circuit breaker).
//
// Endpoints:
//
//	GET  /healthz            liveness + uptime
//	GET  /readyz             readiness (503 while draining or overloaded)
//	GET  /metrics            counters and latency registry (JSON)
//	GET  /v1/benchmarks      served workload suite
//	GET  /v1/models          servable pipeline models
//	GET  /v1/simulate        ?bench=&model=&gran=   (POST: JSON body)
//	GET  /v1/sweep           ?gran=&bench=a,b&model=x,y   NDJSON stream
//	GET  /v1/suite           ?model=&gran=   full paper table for one model
//	GET  /v1/partial         ?bench=a,b   mergeable suite share (cluster fan-in)
//	POST /v1/program         untrusted-program intake (JSON {lang, source}, X-Tenant
//	                         header); accepted programs run under "user:<sha256>" names
//	POST /v1/program/install fleet replication of an already-accepted program
//	GET  /v1/program/{id}    one accepted program; GET /v1/programs lists them
//
// Untrusted-program intake flags (see internal/workload for the validation
// wall each submission must clear):
//
//	-program-max-source-kb N     max submitted source size in KiB (0 = 256)
//	-program-max-insts N         probationary instruction budget (0 = 2M)
//	-program-tenant-max N        accepted programs per tenant (0 = 32)
//	-program-quota-per-min N     submissions per tenant per minute (0 = 30)
//	-program-install-per-min N   replica installs per minute, fleet-wide (0 = 120)
//	-program-install-token S     shared fleet secret required (X-Install-Token)
//	                             on POST /v1/program/install; empty leaves the
//	                             endpoint open (still hash-verified, rebuilt,
//	                             budget-clamped, and rate-metered)
//	-program-stored-mb N         resident registry budget in MB (0 = 16);
//	                             with -trace-dir set, evictions spill to
//	                             DIR/programs and reload on demand
//
// Tenant identity is the X-Tenant request header, trusted as sent: deploy
// behind a proxy that authenticates callers and sets it, or the per-tenant
// quotas are merely per-name.
//
// Usage:
//
//	sigserve -addr :8080 -workers 8 -cache 256 -timeout 2m
//
// Performance flags:
//
//	-trace-cache-mb N      memory budget for the LRU of captured benchmark
//	                       traces (capture once, replay for every model;
//	                       0 = 256 MB default; negative is a usage error)
//	-trace-dir DIR         back the trace cache with a capture directory
//	                       (SIGCAP02 files): new captures persist there,
//	                       evicted captures demote to disk, and cache misses
//	                       reload from it — shards sharing DIR (or a
//	                       restarted daemon) start warm instead of
//	                       re-interpreting, and a file that will not load is
//	                       replaced by the fresh capture. Reloads
//	                       are mapped read-only and streamed frame by frame,
//	                       so a warm start costs the footer index rather
//	                       than a full decode and co-located shards share
//	                       the capture pages through the OS page cache
//	-trace-mmap            map SIGCAP02 captures instead of decoding them
//	                       (default true; =false always eagerly decodes,
//	                       e.g. when DIR is on a network filesystem)
//	-pprof                 mount net/http/pprof under /debug/pprof/
//
// Resilience flags:
//
//	-max-queued N          shed (HTTP 429) once N jobs are waiting
//	                       (0 = 8×workers, negative = unbounded)
//	-retries N             retry transient failures up to N times
//	-breaker-threshold N   quarantine a (bench, model) after N consecutive
//	                       failures (HTTP 503; 0 disables the breaker)
//
// For resilience testing only, -chaos arms the deterministic fault
// injector with a seeded schedule, e.g.:
//
//	sigserve -chaos '42:pool.pickup=latency(50ms)@0.2,cache.get=error@0.1'
//
// Never enable -chaos in production: it deliberately fails requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (default GOMAXPROCS)")
	cacheSize := flag.Int("cache", simsvc.DefaultCacheSize, "LRU result-cache capacity")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-request simulation timeout (0 = none)")
	maxQueued := flag.Int("max-queued", 0, "queued-job bound before shedding 429s (0 = 8×workers, <0 = unbounded)")
	retries := flag.Int("retries", simsvc.DefaultRetries, "retry attempts for transient simulation failures")
	breakerThreshold := flag.Int("breaker-threshold", simsvc.DefaultBreakerThreshold,
		"consecutive failures before a (bench, model) pair is quarantined (0 = disabled)")
	traceCacheMB := flag.Int("trace-cache-mb", 0,
		"captured-trace LRU budget in MB (0 = 256 MB default; must not be negative)")
	traceDir := flag.String("trace-dir", "",
		"directory for persisted SIGCAP02 captures (spill on evict, reload on miss; empty = in-memory only)")
	traceMmap := flag.Bool("trace-mmap", true,
		"map SIGCAP02 captures from -trace-dir read-only and stream them (false = always decode eagerly)")
	programMaxSourceKB := flag.Int("program-max-source-kb", 0,
		"untrusted-program intake: max submitted source size in KiB (0 = 256 KiB default)")
	programMaxInsts := flag.Uint64("program-max-insts", 0,
		"untrusted-program intake: probationary retired-instruction budget, also the accepted benchmark's runaway guard (0 = 2M default)")
	programTenantMax := flag.Int("program-tenant-max", 0,
		"untrusted-program intake: accepted programs one tenant may hold (0 = 32 default)")
	programPerMin := flag.Int("program-quota-per-min", 0,
		"untrusted-program intake: submissions per tenant per minute, accepted or not (0 = 30 default)")
	programInstallPerMin := flag.Int("program-install-per-min", 0,
		"untrusted-program intake: fleet-wide replica installs per minute on /v1/program/install (0 = 120 default)")
	programInstallToken := flag.String("program-install-token", "",
		"shared fleet secret gating POST /v1/program/install (X-Install-Token header); empty leaves the endpoint open")
	programStoredMB := flag.Int("program-stored-mb", 0,
		"untrusted-program intake: resident registry byte budget in MB; evictions spill beside -trace-dir when set (0 = 16 MB default)")
	drainGrace := flag.Duration("drain-grace", 3*time.Second,
		"how long to stay up (unready but serving) after SIGTERM so load balancers rotate the shard out")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	chaos := flag.String("chaos", "", "DEV ONLY: fault-injection spec, seed:point=kind[(dur)][@prob],... (see internal/faultinject)")
	flag.Parse()

	if *traceCacheMB < 0 {
		// Every request replays a capture, so no budget turns caching off;
		// refuse a negative one instead of silently using the default.
		fmt.Fprintf(os.Stderr, "sigserve: -trace-cache-mb %d: must not be negative (the live, uncached mode is gone; 0 selects %d MB)\n",
			*traceCacheMB, simsvc.DefaultTraceCacheMB)
		os.Exit(2)
	}
	var faults *faultinject.Injector
	if *chaos != "" {
		var err error
		faults, err = faultinject.Parse(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigserve: -chaos: %v\n", err)
			os.Exit(2)
		}
		log.Printf("sigserve: WARNING: chaos fault injection armed (%s) — do not use in production", faults)
	}

	// The intake registry spills evicted programs beside the trace captures
	// when -trace-dir is set: both survive restarts the same way.
	spillDir := ""
	if *traceDir != "" {
		spillDir = filepath.Join(*traceDir, "programs")
	}
	programs, err := workload.NewRegistry(workload.Options{
		MaxSourceBytes: *programMaxSourceKB << 10,
		MaxInsts:       *programMaxInsts,
		MaxStoredBytes: int64(*programStoredMB) << 20,
		SpillDir:       spillDir,
		TenantPrograms: *programTenantMax,
		SubmitPerMin:   *programPerMin,
		InstallPerMin:  *programInstallPerMin,
		Faults:         faults,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigserve: program registry: %v\n", err)
		os.Exit(2)
	}

	svc := simsvc.New(simsvc.Config{
		Workers:          *workers,
		CacheSize:        *cacheSize,
		Timeout:          *timeout,
		MaxQueued:        *maxQueued,
		Retries:          *retries,
		BreakerThreshold: *breakerThreshold,
		TraceCacheMB:     *traceCacheMB,
		TraceDir:         *traceDir,
		TraceNoMmap:      !*traceMmap,
		Faults:           faults,
		Programs:         programs,
		InstallToken:     *programInstallToken,
	})
	defer svc.Close()

	handler := simsvc.NewHandler(svc)
	if *pprofOn {
		// Wrap the service handler so the profiling endpoints live beside it
		// without touching http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("sigserve: pprof profiling enabled at /debug/pprof/")
	}

	server := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Sweeps stream for as long as the simulations take; only bound the
		// request-header read.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("sigserve: listening on %s (%d workers, cache %d, %d benchmarks, %d models)",
			*addr, svc.Workers(), *cacheSize, len(svc.Benchmarks()), len(svc.Models()))
		errc <- server.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sigserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Drain first: /readyz flips to 503 so a gateway rotates the shard
		// out, then the grace period lets in-flight gateway dispatches land
		// before the listener stops accepting.
		log.Print("sigserve: draining (readiness now 503)")
		svc.Drain()
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		log.Print("sigserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "sigserve: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}
