// Command olapd serves the gmdj engine over HTTP/JSON: a concurrent
// query server with per-tenant admission quotas, per-request deadlines,
// typed structured errors, and graceful drain on SIGTERM.
//
// Usage:
//
//	olapd [-addr :8080] [-data netflow|tpcr|none] [-scale f] [-parallel n]
//	      [-data-dir dir] [-timeout d] [-max-timeout d]
//	      [-mem-limit bytes] [-spill-dir dir] [-admission-timeout d]
//	      [-plancache bytes] [-resultcache bytes]
//	      [-quota spec] [-tenants spec] [-slo spec] [-drain-timeout d]
//	      [-admin] [-slow-ms n] [-slowlog out.json] [-leak-check]
//	      [-trace-cap n] [-log-level debug|info|warn|error|off]
//	      [-profile-dir dir] [-profile-interval d] [-profile-cpu d]
//	      [-profile-retain n] [-incident-slow-ms n] [-incident-burn f]
//	      [-incident-queue n] [-incident-mem f] [-incident-min-interval d]
//
// The API is one endpoint:
//
//	POST /query
//	  {"sql": "...", "strategy": "gmdj-opt", "timeout_ms": 500, "args": [...]}
//	  200 → {"columns": [...], "rows": [...], "row_count": n,
//	         "request_id": "...", ...}
//	  else → {"error": "...", "kind": "...", "exit_code": n,
//	          "http_status": n, "request_id": "...",
//	          "retryable": bool, "retry_after_ms": n}
//
// plus GET /healthz (accepting/draining + counters) and GET /metrics
// (Prometheus text exposition: per-tenant request/response counters
// and latency histograms, admission-gate state, SLO burn gauges, and
// the engine-level gmdj_* families). The tenant is named by the
// X-OLAP-Tenant header (default "default").
//
// Request telemetry: every request carries an ID — the client's
// X-Request-Id header (sanitized) or a freshly minted one — echoed as
// a response header, in every JSON body, on each structured log line,
// in the live query registry and slow-query log, and on the request's
// trace spans. -slo declares per-tenant objectives published on
// /metrics ("paying:avail=0.999,p99=250ms;batch:avail=0.99").
// -trace-cap sizes the in-memory trace ring (0 disables tracing);
// with -admin the recorded trace downloads from /debug/olap/trace,
// ready for Perfetto. -log-level selects the threshold for the JSON
// request log on stderr ("off" silences it).
//
// Quotas: -quota is the default tenant envelope, -tenants grants
// per-tenant overrides, e.g.
//
//	-quota inflight=64,admission=2s
//	-tenants 'alice:inflight=8,mem=32MiB;bob:inflight=2,admission=500ms'
//
// A tenant over its in-flight cap queues FIFO and is shed with HTTP
// 429 + Retry-After at its admission deadline; a draining server
// answers 503 + Retry-After.
//
// Shutdown: SIGTERM or SIGINT starts the drain — stop accepting, let
// in-flight queries finish within -drain-timeout, then hard-cancel
// stragglers through their governor contexts. A drained exit is code
// 0 even when the hard phase fired. -leak-check verifies at exit that
// the goroutine count returned to its pre-serving baseline (code 12
// and a stack dump otherwise) — the chaos harness runs with it on.
//
// Durability: -data-dir roots crash-safe columnar storage. On startup
// the server recovers the latest committed manifest generation,
// logging one "storage recovered" line (generation, table count,
// quarantine count) plus one warning per quarantined segment; tables
// whose on-disk bytes fail verification are quarantined — queries on
// them answer 500 with kind "segment_corrupt" while every other table
// keeps serving. Tables checkpoint transparently after DDL/loads. The
// olap_storage_* /metrics families are published when persistence is
// on. Recovery runs after the -data sample loaders, so a recovered
// table replaces a same-named sample.
//
// Fault injection: GMDJ_FAULTS covers the server sites serve.accept,
// serve.write, and serve.cancel alongside the engine sites, with an
// optional @N rate suffix ("serve.accept=error@25" fails one accept
// in 25). Injected serving faults degrade to typed 503 responses.
//
// -admin mounts the live dashboard (/debug/olap/queries, /hist,
// /slowlog, /mem), the admission snapshot (/debug/serve), expvar
// (/debug/vars), and the net/http/pprof handlers (/debug/pprof/*) on
// the same listener.
//
// Continuous profiling: -profile-dir enables a background profiler
// that captures CPU, heap, goroutine, and mutex profiles every
// -profile-interval into a bounded on-disk ring (-profile-retain per
// kind), attributing CPU samples to tenants via pprof labels — the
// per-tenant olap_tenant_cpu_seconds_total family on /metrics comes
// from those captures. With -admin the ring is browsable at
// /debug/olap/profiles. The same directory hosts the incident flight
// recorder: when a query exceeds -incident-slow-ms, an SLO's error-
// budget burn reaches -incident-burn, an admission queue reaches
// -incident-queue waiters, or memory-pool utilization reaches
// -incident-mem, it writes one self-contained bundle (profiles, trace
// ring, slow-query log, /metrics scrape, goroutine dump, config
// snapshot) under <profile-dir>/incidents, rate-limited to one per
// -incident-min-interval. POST /debug/olap/incident forces a bundle.
// cmd/bundlecheck validates bundles offline.
//
// Exit codes: 0 clean shutdown, 1 server error, 2 usage,
// 12 goroutine leak detected (with -leak-check).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs/profile"
	"github.com/olaplab/gmdj/internal/serve"
)

const (
	exitClean = 0
	exitErr   = 1
	exitUsage = 2
	exitLeak  = 12
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "netflow", "sample dataset to preload: netflow, tpcr, or none")
	dataDir := flag.String("data-dir", "", "durable storage root: segments checkpoint here and recover on restart ('' = in-memory only)")
	scale := flag.Float64("scale", 1.0, "sample dataset scale factor")
	parallel := flag.Int("parallel", 0, "morsel-driven execution degree (1 = serial, 0 = default: GOMAXPROCS or GMDJ_PARALLEL)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline when the request carries none (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "clamp on client-requested timeouts (0 = unclamped)")
	memLimit := flag.Int64("mem-limit", 0, "engine-wide tracked-state memory pool in bytes (0 = untracked)")
	spillDir := flag.String("spill-dir", "auto", "spill scratch root ('auto' = system temp dir, '' disables spilling)")
	admission := flag.Duration("admission-timeout", 0, "memory-pool admission deadline (0 = 10s default)")
	planCacheBytes := flag.Int64("plancache", 0, "parameterized plan cache byte budget (0 = default, negative disables)")
	resultCacheBytes := flag.Int64("resultcache", -1, "cross-query result memo byte budget (negative = off)")
	quota := flag.String("quota", "", "default tenant quota spec, e.g. inflight=64,mem=64MiB,admission=2s")
	tenants := flag.String("tenants", "", "per-tenant quota specs, e.g. 'a:inflight=8;b:inflight=2'")
	sloSpec := flag.String("slo", "", "per-tenant SLOs published on /metrics, e.g. 'a:avail=0.999,p99=250ms;b:avail=0.99'")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long in-flight queries may finish after SIGTERM before being hard-canceled")
	admin := flag.Bool("admin", false, "mount /debug/olap/*, /debug/serve, and /debug/vars")
	slowMS := flag.Int64("slow-ms", 100, "slow-query threshold in milliseconds (0 logs every query)")
	slowlogOut := flag.String("slowlog", "", "write the slow-query log as JSON to this file on exit")
	leakCheck := flag.Bool("leak-check", false, "verify the goroutine count returns to baseline at exit (exit 12 on leak)")
	traceCap := flag.Int("trace-cap", 65536, "in-memory trace ring capacity in events (0 disables tracing)")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error, or off")
	profileDir := flag.String("profile-dir", "", "continuous-profiling root: cadence CPU/heap/goroutine/mutex profiles land in a bounded ring here ('' disables)")
	profileInterval := flag.Duration("profile-interval", 30*time.Second, "cadence between profile captures")
	profileCPU := flag.Duration("profile-cpu", 2*time.Second, "CPU profiling window per capture cycle (clamped to half the interval)")
	profileRetain := flag.Int("profile-retain", 8, "profiles retained per kind in the ring")
	incidentSlowMS := flag.Int64("incident-slow-ms", 0, "flight-recorder trigger: query wall time in milliseconds (0 disables)")
	incidentBurn := flag.Float64("incident-burn", 0, "flight-recorder trigger: SLO error-budget burn rate (0 disables; needs -slo)")
	incidentQueue := flag.Int("incident-queue", 0, "flight-recorder trigger: admission-gate queue depth (0 disables)")
	incidentMem := flag.Float64("incident-mem", 0, "flight-recorder trigger: memory-pool utilization in [0,1] (0 disables; needs -mem-limit)")
	incidentMinInterval := flag.Duration("incident-min-interval", 5*time.Minute, "minimum spacing between incident bundles (rate limit)")
	flag.Parse()

	defaultQuota, err := serve.ParseQuota(*quota)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapd:", err)
		return exitUsage
	}
	tenantQuotas, err := serve.ParseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapd:", err)
		return exitUsage
	}
	slos, err := serve.ParseSLOs(*sloSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapd:", err)
		return exitUsage
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapd:", err)
		return exitUsage
	}

	opts := []gmdj.Option{
		gmdj.WithParallelism(*parallel),
		gmdj.WithPlanCache(*planCacheBytes),
		gmdj.WithResultCache(*resultCacheBytes),
	}
	if *memLimit > 0 {
		opts = append(opts, gmdj.WithMemoryLimit(*memLimit))
		if *admission > 0 {
			opts = append(opts, gmdj.WithAdmissionTimeout(*admission))
		}
	}
	if *spillDir != "auto" {
		opts = append(opts, gmdj.WithSpillDir(*spillDir))
	}
	var db *gmdj.DB
	switch *data {
	case "netflow":
		db = gmdj.OpenNetflowSample(int(50_000**scale), opts...)
	case "tpcr":
		db = gmdj.OpenTPCRSample(*scale, opts...)
	case "none":
		db = gmdj.Open(opts...)
	default:
		fmt.Fprintf(os.Stderr, "olapd: unknown dataset %q\n", *data)
		return exitUsage
	}
	// Durable storage attaches after the sample loaders so a recovered
	// table replaces a same-named sample rather than the reverse.
	if *dataDir != "" {
		rep, err := db.SetDataDir(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapd:", err)
			db.Close()
			return exitErr
		}
		logEvent(logger, slog.LevelInfo, "storage recovered",
			"dir", *dataDir, "generation", rep.Generation,
			"tables", len(rep.Tables), "quarantined", len(rep.Quarantined),
			"manifests_skipped", rep.SkippedManifests)
		for _, q := range rep.Quarantined {
			logEvent(logger, slog.LevelWarn, "segment quarantined",
				"table", q.Table, "file", q.File, "reason", q.Reason)
		}
	}
	db.EnableObservability(gmdj.ObsConfig{
		SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	if *traceCap > 0 {
		db.EnableTracing(*traceCap)
	}

	// Continuous profiler + flight recorder. Both are optional and each
	// owns exactly one goroutine; they are closed before the leak check.
	var profiler *profile.Profiler
	var recorder *profile.Recorder
	if *profileDir != "" {
		profiler, err = profile.New(profile.Config{
			Dir:         *profileDir,
			Interval:    *profileInterval,
			CPUDuration: *profileCPU,
			Retain:      *profileRetain,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapd:", err)
			db.Close()
			return exitErr
		}
		profiler.Start()
		recorder, err = profile.NewRecorder(profile.RecorderConfig{
			Dir:         filepath.Join(*profileDir, profile.IncidentsDirName),
			MinInterval: *incidentMinInterval,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapd:", err)
			profiler.Close()
			db.Close()
			return exitErr
		}
	}

	srv := serve.NewServer(db, serve.Config{
		DefaultQuota:        defaultQuota,
		Tenants:             tenantQuotas,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		Admin:               *admin,
		Faults:              govern.FromEnv(),
		Logger:              logger,
		SLOs:                slos,
		Profiler:            profiler,
		Recorder:            recorder,
		IncidentSlowQuery:   time.Duration(*incidentSlowMS) * time.Millisecond,
		IncidentBurn:        *incidentBurn,
		IncidentQueueDepth:  *incidentQueue,
		IncidentMemPressure: *incidentMem,
	})
	if recorder != nil {
		recorder.Start()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *admin {
		mux.Handle("/debug/vars", expvar.Handler())
	}
	hs := &http.Server{Addr: *addr, Handler: mux}

	// The leak baseline is taken before the serving goroutines start,
	// so a clean shutdown must return all of them.
	baseline := runtime.NumGoroutine()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logEvent(logger, slog.LevelInfo, "serving",
		"addr", *addr, "data", *data, "scale", *scale, "drain_budget", drainTimeout.String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "olapd:", err)
		db.Close()
		return exitErr
	case s := <-sig:
		logEvent(logger, slog.LevelInfo, "signal received",
			"signal", s.String(), "drain_budget", drainTimeout.String(), "in_flight", srv.InFlight())
	}
	signal.Stop(sig)

	// Drain state machine: reject new queries, wait out in-flight ones
	// within the budget, hard-cancel stragglers, then close the
	// listener and the DB.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Drain(drainCtx)
	cancel()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	shutErr := hs.Shutdown(shutCtx)
	cancel()
	if err := writeSlowLog(db, *slowlogOut); err != nil {
		fmt.Fprintln(os.Stderr, "olapd:", err)
	}
	db.Close()
	// The profiler and recorder goroutines are part of the serving
	// footprint; stop them before the leak check so only a real leak
	// fails it. The recorder itself stays usable for DumpGoroutines
	// below (that path writes synchronously, no goroutine needed).
	if recorder != nil {
		recorder.Close()
	}
	if profiler != nil {
		profiler.Close()
	}

	st := srv.Stats()
	logEvent(logger, slog.LevelInfo, "drained",
		"accepted", st.Accepted, "completed", st.Completed, "rejected", st.Rejected,
		"hard_canceled", st.HardCanceled, "faults_fired", st.FaultsFired)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "olapd:", drainErr)
		return exitErr
	}
	if shutErr != nil && !errors.Is(shutErr, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "olapd: shutdown:", shutErr)
		return exitErr
	}
	if *leakCheck {
		if n, ok := awaitGoroutineBaseline(baseline, 10*time.Second); !ok {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "olapd: goroutine leak: %d live, baseline %d\n%s\n", n, baseline, buf)
			// Keep the evidence: a labeled goroutine profile in the
			// flight-recorder directory outlives the process and carries
			// pprof labels the plain stack dump above cannot show.
			if recorder != nil {
				reason := fmt.Sprintf("leak check failed: %d live, baseline %d", n, baseline)
				if path, derr := recorder.DumpGoroutines(reason); derr != nil {
					fmt.Fprintln(os.Stderr, "olapd: goroutine dump:", derr)
				} else {
					fmt.Fprintln(os.Stderr, "olapd: goroutine dump written to", path)
				}
			}
			return exitLeak
		}
		logEvent(logger, slog.LevelInfo, "leak check passed", "goroutines", runtime.NumGoroutine())
	}
	return exitClean
}

// newLogger builds the stderr JSON logger, or nil for "off".
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error, or off)", level)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// logEvent emits one structured line, tolerating a nil (-log-level
// off) logger.
func logEvent(l *slog.Logger, level slog.Level, msg string, args ...any) {
	if l == nil {
		return
	}
	l.Log(context.Background(), level, msg, args...)
}

// awaitGoroutineBaseline polls until the goroutine count returns to
// baseline (+2 of slack for runtime helpers) or the deadline passes.
func awaitGoroutineBaseline(baseline int, wait time.Duration) (int, bool) {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func writeSlowLog(db *gmdj.DB, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.WriteSlowLog(f)
}
