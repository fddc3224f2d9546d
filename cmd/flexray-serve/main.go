// flexray-serve exposes the bus-access optimisation pipeline as a JSON
// HTTP service backed by the concurrent campaign engine: clients POST a
// system description and get back an optimised bus configuration, a
// holistic analysis, or a discrete-event simulation.
//
// Usage:
//
//	flexray-serve [-addr :8080] [-workers N] [-max-concurrent M]
//	              [-timeout 2m] [-max-body 8388608] [-pprof]
//	              [-store jobs.jsonl] [-job-workers N] [-queue-cap N]
//	              [-retain-jobs N] [-retain-age D] [-retain-bytes N]
//	              [-compact-interval D] [-trace-sample R] [-trace-slow D]
//	              [-trace-spans N] [-trace-detail run|phase]
//	              [-lease-ttl D] [-lease-systems N]
//	              [-peer URL] [-peer-id ID] [-peer-poll D]
//	              [-addr-file F] [-log-format text|json] [-version]
//
// Synchronous endpoints:
//
//	POST /v1/optimize  {"system": {...}, "algorithms": ["obc-cf"],
//	                    "workers": 4, "options": {"sa_iterations": 500}}
//	POST /v1/analyze   {"system": {...}, "config": {...}}
//	POST /v1/simulate  {"system": {...}, "config": {...}, "repetitions": 2}
//	GET  /livez        liveness probe (the process serves HTTP)
//	GET  /readyz       readiness probe (503 while draining or shedding)
//	GET  /healthz      combined probe + build info + operational snapshot
//	GET  /metrics      Prometheus text exposition (see OPERATIONS.md)
//	GET  /debug/pprof/ (only with -pprof; off by default)
//
// Asynchronous jobs (durable with -store; see internal/jobs):
//
//	POST   /v1/jobs             submit {"kind": "optimize"|"campaign"|"sweep", ...}
//	GET    /v1/jobs[?status=s]  list jobs
//	GET    /v1/jobs/{id}        poll one job (status + progress)
//	GET    /v1/jobs/{id}/result fetch the payload of a finished job
//	GET    /v1/jobs/{id}/events live progress via Server-Sent Events
//	GET    /v1/jobs/{id}/spans  span summary + live span tree of the job
//	                            (optimiser convergence: "best" events on
//	                            the opt.<ALG> spans)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//
// Distributed campaigns (submit with "kind": "campaign",
// "distribute": true; see OPERATIONS.md "Scale-out"): the job is split
// into shard leases that worker peers pull, execute and report back.
// Any flexray-serve started with -peer pointing at this server joins
// as a worker; lease TTL and shard size are coordinator-side knobs
// (-lease-ttl, -lease-systems). Results are bit-identical to a
// single-process run — a dead worker's lease expires and its shard is
// re-queued deterministically.
//
//	POST /v1/leases/claim           worker pulls a shard lease (204 = no work)
//	POST /v1/leases/{id}/renew      heartbeat a held lease
//	POST /v1/leases/{id}/complete   report shard records or failure
//	GET  /v1/leases                 lease table snapshot (shards + workers)
//
// Span tracing (off by default, zero-cost while off): -trace-sample
// head-samples requests into span trees spanning the HTTP middleware,
// job lifecycle, campaign shards and optimiser runs (-trace-detail
// phase adds optimiser-internal phases); -trace-slow additionally
// records any span slower than the threshold, sampled or not. An
// incoming W3C traceparent header is continued — across the async job
// boundary and server restarts — and responses echo X-Trace-Id plus a
// traceparent. Assembled traces are served at GET /v1/traces/{id} as
// OTLP/JSON lines (render with `flexray-bench trace`), bounded in
// memory by -trace-spans; latency histograms carry trace-ID exemplars
// in the OpenMetrics exposition.
//
// Example round-trip (the paper's cruise-controller case study):
//
//	flexray-gen -cruise -o cruise.json
//	curl -s -X POST localhost:8080/v1/optimize \
//	    -H 'Content-Type: application/json' \
//	    -d "{\"system\": $(cat cruise.json), \"algorithms\": [\"obc-cf\"]}"
//
// The server sheds load instead of queueing unboundedly: at most
// -max-concurrent heavy computations run at once (excess gets 503 with
// a Retry-After header), bodies are capped at -max-body bytes, every
// request is answered within -timeout (a computation that cannot be
// interrupted keeps its slot until it finishes, so the concurrency
// bound holds even then), and the async queue is bounded by -queue-cap.
// SIGINT/SIGTERM drain in-flight work before exiting; with a -store
// file, queued and running jobs are checkpointed so a restarted server
// resumes them and keeps serving finished results.
//
// The -retain-* flags bound terminal-job state (oldest evicted first;
// evicted IDs answer 410 Gone) and -compact-interval periodically
// rewrites the -store file to live state — shutdown always compacts —
// so neither memory nor the store grows with history. See
// OPERATIONS.md for the production tuning guide.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// serveOptions collect every operator-facing flag of flexray-serve.
// The flags are registered through registerFlags so the docs-drift
// test can enumerate them against the README and OPERATIONS.md flag
// reference tables.
type serveOptions struct {
	addr            string
	workers         int
	maxConc         int
	timeout         time.Duration
	maxBody         int64
	pprofOn         bool
	store           string
	jobWorkers      int
	queueCap        int
	retainJobs      int
	retainAge       time.Duration
	retainBytes     int64
	compactInterval time.Duration
	logFormat       string
	traceSample     float64
	traceSlow       time.Duration
	traceSpans      int
	traceDetail     string
	leaseTTL        time.Duration
	leaseSystems    int
	peer            string
	peerID          string
	peerPoll        time.Duration
	addrFile        string
	validateJobs    bool
	version         bool
}

// registerFlags declares the flexray-serve flag set on fs; main passes
// flag.CommandLine, tests pass a throwaway set.
func registerFlags(fs *flag.FlagSet) *serveOptions {
	o := &serveOptions{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "evaluation workers per request (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxConc, "max-concurrent", 2, "heavy requests served at once (excess gets 503)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Minute, "per-request wall-clock budget")
	fs.Int64Var(&o.maxBody, "max-body", 8<<20, "request body size cap in bytes")
	fs.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling the evaluation sessions)")
	fs.StringVar(&o.store, "store", "", "append-only JSONL job store; empty keeps jobs in memory only")
	fs.IntVar(&o.jobWorkers, "job-workers", 2, "async jobs executed concurrently")
	fs.IntVar(&o.queueCap, "queue-cap", 64, "queued async jobs before submissions are shed")
	fs.IntVar(&o.retainJobs, "retain-jobs", 0, "terminal jobs retained before the oldest are evicted (0 = unlimited)")
	fs.DurationVar(&o.retainAge, "retain-age", 0, "terminal jobs finished longer ago than this are evicted (0 = unlimited)")
	fs.Int64Var(&o.retainBytes, "retain-bytes", 0, "total encoded job-result bytes retained before the oldest results are evicted (0 = unlimited)")
	fs.DurationVar(&o.compactInterval, "compact-interval", 0, "rewrite the -store file to live state this often (0 = only at shutdown)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of requests span-traced (0 disables tracing, 1 traces everything)")
	fs.DurationVar(&o.traceSlow, "trace-slow", 0, "always record traces slower than this even when unsampled (0 = off)")
	fs.IntVar(&o.traceSpans, "trace-spans", 65536, "spans retained in memory across all traces (oldest traces evicted first)")
	fs.StringVar(&o.traceDetail, "trace-detail", "run", "span granularity: run (one span per optimiser) or phase (optimiser-internal phases too)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "distributed shard lease TTL; a worker silent this long forfeits its shard")
	fs.IntVar(&o.leaseSystems, "lease-systems", 4, "systems per distributed shard lease (campaign jobs may override per spec)")
	fs.StringVar(&o.peer, "peer", "", "coordinator base URL; set to join it as a lease worker peer")
	fs.StringVar(&o.peerID, "peer-id", "", "worker identity reported to the coordinator (default hostname-pid)")
	fs.DurationVar(&o.peerPoll, "peer-poll", 250*time.Millisecond, "idle wait between lease claim attempts in -peer mode")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound listen address to this file once serving (for :0 addresses)")
	fs.BoolVar(&o.validateJobs, "validate-jobs", false, "lint uploaded systems at job submission and reject error-severity findings with 422")
	fs.BoolVar(&o.version, "version", false, "print build information and exit")
	return o
}

func main() { os.Exit(runServe(os.Args[1:])) }

// peerAfterClaim is the -peer worker's jobs.WorkerOptions.AfterClaim
// hook. It is nil in production; the e2e tests' TestMain sets a fault
// hook here in worker children re-execed from the test binary.
var peerAfterClaim func(ctx context.Context)

// runServe is the whole server lifecycle behind main, factored on an
// explicit argument list and exit code so the multi-process e2e tests
// can re-exec the test binary as a real coordinator or worker.
func runServe(args []string) int {
	fs := flag.NewFlagSet("flexray-serve", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if o.version {
		b := readBuildInfo()
		fmt.Printf("flexray-serve %s (revision %s, %s)\n", b.Version, b.Revision, b.Go)
		return 0
	}
	logger, err := newLogger(o.logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexray-serve: %v\n", err)
		return 2
	}
	// writeJSON and the jobs manager's default Logf log through the
	// default logger; route it to the selected handler too.
	slog.SetDefault(logger)

	var store jobs.Store
	if o.store != "" {
		f, err := jobs.NewFileStore(o.store)
		if err != nil {
			logger.Error("opening job store", "store", o.store, "error", err)
			return 1
		}
		store = f
	}
	s, err := newServer(serverConfig{
		Workers:       o.workers,
		MaxConcurrent: o.maxConc,
		Timeout:       o.timeout,
		MaxBody:       o.maxBody,
		Pprof:         o.pprofOn,
		JobStore:      store,
		JobWorkers:    o.jobWorkers,
		JobQueueCap:   o.queueCap,
		JobRetention: jobs.RetentionPolicy{
			MaxTerminal:    o.retainJobs,
			MaxAge:         o.retainAge,
			MaxResultBytes: o.retainBytes,
		},
		JobCompactInterval: o.compactInterval,
		LeaseTTL:           o.leaseTTL,
		LeaseSystems:       o.leaseSystems,
		ValidateJobs:       o.validateJobs,
		Logger:             logger,
		TraceSample:        o.traceSample,
		TraceSlow:          o.traceSlow,
		TraceSpans:         o.traceSpans,
		TraceDetail:        o.traceDetail,
	})
	if err != nil {
		logger.Error("startup", "error", err)
		return 1
	}
	// Explicit listen (rather than ListenAndServe) so -addr-file can
	// publish the resolved port of a ":0" address before any client
	// could race the first request.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listening", "addr", o.addr, "error", err)
		return 1
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("writing addr-file", "path", o.addrFile, "error", err)
			ln.Close()
			return 1
		}
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"workers", effectiveWorkers(o.workers),
		"max_concurrent", o.maxConc,
		"version", s.build.Version,
		"revision", s.build.Revision)

	// -peer turns this process into a lease worker on top of its own
	// HTTP service: it pulls distributed-campaign shards from the
	// coordinator until shutdown.
	var (
		workerDone chan struct{}
		workerStop context.CancelFunc
	)
	if o.peer != "" {
		var wctx context.Context
		wctx, workerStop = context.WithCancel(context.Background())
		defer workerStop()
		worker := jobs.NewWorker(jobs.WorkerOptions{
			ID:      o.peerID,
			BaseURL: o.peer,
			Poll:    o.peerPoll,
			Workers: o.workers,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
			Tracer:     s.tracer,
			Metrics:    s.jobsMetrics,
			AfterClaim: peerAfterClaim,
		})
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			worker.Run(wctx)
		}()
		logger.Info("worker peer started", "coordinator", o.peer, "id", worker.ID())
	}

	select {
	case err := <-errc:
		logger.Error("serving", "error", err)
		return 1
	case <-ctx.Done():
	}
	logger.Info("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Stop pulling new shards first; the worker's final completion
	// report runs on its own short budget.
	if workerDone != nil {
		workerStop()
		select {
		case <-workerDone:
		case <-shutCtx.Done():
		}
	}
	// Checkpoint the job subsystem next: running jobs are cancelled
	// and written back to the store as queued (a restart resumes
	// them), and the long-lived SSE event streams end — srv.Shutdown
	// would otherwise wait out its whole grace period on them.
	if err := s.Close(shutCtx); err != nil {
		logger.Error("job shutdown", "error", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", "error", err)
	}
	return 0
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

type serverConfig struct {
	Workers       int
	MaxConcurrent int
	Timeout       time.Duration
	MaxBody       int64
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints leak heap contents and must
	// never face untrusted clients.
	Pprof bool
	// JobStore persists the async job subsystem; nil keeps jobs in
	// memory for the lifetime of the process.
	JobStore jobs.Store
	// JobWorkers/JobQueueCap size the async job manager.
	JobWorkers  int
	JobQueueCap int
	// JobRetention bounds retained terminal jobs (the -retain-*
	// flags); the zero value retains everything.
	JobRetention jobs.RetentionPolicy
	// JobCompactInterval triggers periodic store compaction
	// (-compact-interval); graceful shutdown always compacts.
	JobCompactInterval time.Duration
	// LeaseTTL/LeaseSystems tune distributed campaign sharding
	// (-lease-ttl, -lease-systems); zero values take the manager
	// defaults.
	LeaseTTL     time.Duration
	LeaseSystems int
	// ValidateJobs turns on the -validate-jobs lint gate: uploaded
	// systems are linted (structural pass) at submission and
	// error-severity findings reject the job with a structured 422.
	ValidateJobs bool
	// Logger receives the request and operational logs; nil uses
	// slog.Default().
	Logger *slog.Logger
	// TraceSample/TraceSlow enable span tracing (the -trace-* flags):
	// tracing is off — the zero-cost nil-tracer path — unless at least
	// one of them is positive. TraceSpans bounds the in-memory span
	// store; TraceDetail is "run" or "phase".
	TraceSample float64
	TraceSlow   time.Duration
	TraceSpans  int
	TraceDetail string
}

// server carries the shared request-shaping state; it implements
// http.Handler.
type server struct {
	mux     *http.ServeMux
	cfg     serverConfig
	heavy   chan struct{} // admission semaphore for optimise/analyse/simulate
	started time.Time
	jobs    *jobs.Manager
	// jobsMetrics is the instrument set shared by the manager and (in
	// -peer mode) the lease worker's flexray_worker_* counters.
	jobsMetrics *jobs.Metrics
	// lintMetrics counts /v1/lint reports and -validate-jobs gate
	// activity.
	lintMetrics *lint.Metrics
	// engine counts the synchronous endpoints' evaluations; healthz
	// adds the job manager's totals on top.
	engine campaign.EngineCounters
	// reg holds every metric the server exposes at GET /metrics; the
	// middleware in route() and the jobs manager feed it.
	reg      *obs.Registry
	log      *slog.Logger
	inflight *obs.Gauge
	build    buildInfo
	// tracer and spans are nil when tracing is disabled; every span
	// call in the request path is nil-safe, so the disabled server
	// runs the exact allocation profile of the untraced build.
	tracer *obs.Tracer
	spans  *obs.SpanStore
	// lastShed is the UnixNano of the most recent load shed (503);
	// readiness reports not-ready for shedWindow after it.
	lastShed atomic.Int64
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &server{
		mux:     http.NewServeMux(),
		cfg:     cfg,
		heavy:   make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
		log:     cfg.Logger,
		build:   readBuildInfo(),
	}
	s.reg = s.newRegistry()
	if err := s.initTracing(); err != nil {
		return nil, err
	}
	s.jobsMetrics = jobs.NewMetrics(s.reg)
	s.lintMetrics = lint.NewMetrics(s.reg)
	mgr, err := jobs.NewManager(cfg.JobStore, jobs.ManagerOptions{
		Workers:         cfg.JobWorkers,
		QueueCap:        cfg.JobQueueCap,
		EvalWorkers:     effectiveWorkers(cfg.Workers),
		Retention:       cfg.JobRetention,
		CompactInterval: cfg.JobCompactInterval,
		LeaseTTL:        cfg.LeaseTTL,
		LeaseSystems:    cfg.LeaseSystems,
		Metrics:         s.jobsMetrics,
		Tracer:          s.tracer,
		Logf: func(format string, args ...any) {
			cfg.Logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.bindEngineMetrics()
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /livez", s.handleLivez)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.reg.ServeHTTP)
	s.route("GET /v1/traces/{id}", s.handleTraceGet)
	s.route("GET /v1/jobs/{id}/spans", s.handleJobSpans)
	s.route("POST /v1/optimize", handleJSON(s, s.handleOptimize))
	s.route("POST /v1/analyze", handleJSON(s, s.handleAnalyze))
	s.route("POST /v1/simulate", handleJSON(s, s.handleSimulate))
	s.route("POST /v1/lint", handleJSON(s, s.handleLint))
	s.route("POST /v1/jobs", handleJSON(s, s.handleJobSubmit))
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	// The event stream is long-lived by design: no request timeout.
	s.route("GET /v1/jobs/{id}/events", s.handleJobEvents)
	// Lease endpoints (distributed campaign shards); the shared guard
	// gives them the same content-type/size/time limits as the other
	// POST endpoints.
	leases := jobs.NewLeaseAPI(mgr)
	s.route("POST /v1/leases/claim", s.guard(leases.HandleClaim))
	s.route("POST /v1/leases/{id}/renew", s.guard(leases.HandleRenew))
	s.route("POST /v1/leases/{id}/complete", s.guard(leases.HandleComplete))
	s.route("GET /v1/leases", leases.HandleList)
	if cfg.Pprof {
		// Mounted on the server's own mux (we never serve
		// http.DefaultServeMux, so the net/http/pprof side-effect
		// registrations alone would not be reachable).
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		// Unmatched /v1 routes answer with the structured error
		// envelope instead of the mux's plain-text 404/405.
		w = &envelopeWriter{ResponseWriter: w}
	}
	s.mux.ServeHTTP(w, r)
}

// Close shuts the job subsystem down, checkpointing queued and running
// jobs to the store.
func (s *server) Close(ctx context.Context) error { return s.jobs.Close(ctx) }

// guard applies the cheap request limits shared by the POST endpoints:
// JSON content type, bounded body and bounded time. The concurrency
// bound is applied by compute, around the expensive section only.
func (s *server) guard(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !jsonContentType(r) {
			httpError(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
		h(w, r.WithContext(ctx))
	}
}

// jsonContentType accepts application/json (and +json variants); a
// missing Content-Type is tolerated for terse curl use.
func jsonContentType(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json" || strings.HasSuffix(mt, "+json")
}

// errBusy marks a request shed because every heavy slot is taken.
var errBusy = errors.New("server at capacity")

// compute runs fn on a heavy-work slot, bounded by ctx. With no slot
// free it sheds immediately instead of queueing. On timeout the
// request is answered at once, while fn — the schedule build and the
// simulator are not interruptible — keeps running in the background
// and releases its slot when done: the -max-concurrent bound holds
// even for runaway computations. The caller must not touch fn's
// results unless compute returned nil.
func (s *server) compute(ctx context.Context, fn func()) error {
	select {
	case s.heavy <- struct{}{}:
	default:
		s.markShed()
		return errBusy
	}
	done := make(chan struct{})
	go func() {
		defer func() { <-s.heavy }()
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter is the hint sent with every load-shed response; shed
// work frees up in seconds, not minutes, under the bounded queues.
const retryAfter = "1"

// computeError maps a compute failure onto its status code.
func computeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", retryAfter)
		httpErrorCode(w, http.StatusServiceUnavailable, codeAtCapacity, "server at capacity, retry later")
		return
	}
	httpErrorCode(w, http.StatusGatewayTimeout, codeTimeout, "computation exceeded the request budget")
}

// handleHealth is the combined probe: the /livez payload plus the
// /readyz verdict in one response, for operators and single-probe
// deployments. Orchestrated deployments should point their liveness
// and readiness probes at the split endpoints instead — restarting a
// pod because its queue is momentarily full is exactly the mistake the
// split exists to prevent.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	stats := s.jobs.Stats()
	engine := stats.Engine
	engine.Add(s.engine.Total())
	ready, detail := s.readiness()
	status, code := "ok", http.StatusOK
	if !ready {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	// Probe answers must never be served stale by an intermediary
	// cache: a probe that hits a cache defeats its purpose.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, code, map[string]any{
		"status":    status,
		"ready":     detail,
		"uptime_s":  int64(time.Since(s.started).Seconds()),
		"workers":   effectiveWorkers(s.cfg.Workers),
		"gomaxproc": runtime.GOMAXPROCS(0),
		"build":     s.build,
		"engine":    engine,
		"jobs":      stats,
	})
}

type optimizeRequest struct {
	System     json.RawMessage `json:"system"`
	Algorithms []string        `json:"algorithms,omitempty"`
	Workers    int             `json:"workers,omitempty"`
	// Options reuses the jobs subsystem's serialisable knob set.
	Options *jobs.Tuning `json:"options,omitempty"`
}

type bestJSON struct {
	Algorithm   string          `json:"algorithm"`
	Cost        float64         `json:"cost"`
	Schedulable bool            `json:"schedulable"`
	Evaluations int             `json:"evaluations"`
	ElapsedUs   int64           `json:"elapsed_us"`
	Config      json.RawMessage `json:"config"`
}

type optimizeResponse struct {
	Best      bestJSON             `json:"best"`
	Runs      []campaign.AlgoRun   `json:"runs"`
	Engine    campaign.EngineStats `json:"engine"`
	ElapsedUs int64                `json:"elapsed_us"`
}

func (s *server) handleOptimize(w http.ResponseWriter, r *http.Request, req *optimizeRequest) {
	sys, ok := parseSystem(w, req.System)
	if !ok {
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	opts := req.Options.Apply(core.DefaultOptions())
	var (
		pf   *campaign.PortfolioResult
		pErr error
	)
	if err := s.compute(r.Context(), func() {
		pf, pErr = campaign.Portfolio(r.Context(), sys, opts,
			campaign.EngineOptions{Workers: workers}, req.Algorithms...)
	}); err != nil {
		computeError(w, err)
		return
	}
	if pErr != nil {
		if errors.Is(pErr, context.DeadlineExceeded) || errors.Is(pErr, context.Canceled) {
			httpError(w, http.StatusGatewayTimeout, "optimisation exceeded the request budget")
			return
		}
		httpError(w, http.StatusUnprocessableEntity, pErr.Error())
		return
	}
	cfgJSON, err := marshalConfig(pf.Best.Config, sys)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.engine.Add(pf.Engine)
	writeJSON(w, http.StatusOK, optimizeResponse{
		Best: bestJSON{
			Algorithm:   pf.Best.Algorithm,
			Cost:        pf.Best.Cost,
			Schedulable: pf.Best.Schedulable,
			Evaluations: pf.Best.Evaluations,
			ElapsedUs:   pf.Best.Elapsed.Microseconds(),
			Config:      cfgJSON,
		},
		Runs:      pf.Runs,
		Engine:    pf.Engine,
		ElapsedUs: pf.Elapsed.Microseconds(),
	})
}

type configuredRequest struct {
	System      json.RawMessage `json:"system"`
	Config      json.RawMessage `json:"config"`
	Repetitions int             `json:"repetitions,omitempty"` // simulate only
}

type analyzeResponse struct {
	Schedulable bool               `json:"schedulable"`
	Cost        float64            `json:"cost"`
	Converged   bool               `json:"converged"`
	CycleUs     float64            `json:"cycle_us"`
	ResponseUs  map[string]float64 `json:"response_us"`
	Violations  []string           `json:"violations,omitempty"`
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request, req *configuredRequest) {
	sys, cfg, ok := parseConfigured(w, req)
	if !ok {
		return
	}
	var (
		res  *analysis.Result
		bErr error
	)
	if err := s.compute(r.Context(), func() {
		_, res, bErr = sched.Build(sys, cfg, sched.DefaultOptions())
	}); err != nil {
		computeError(w, err)
		return
	}
	if bErr != nil {
		httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf("schedule construction failed: %v", bErr))
		return
	}
	s.engine.Add(campaign.EngineStats{Evaluations: 1})
	resp := analyzeResponse{
		Schedulable: res.Schedulable,
		Cost:        res.Cost,
		Converged:   res.Converged,
		CycleUs:     cfg.Cycle().Us(),
		ResponseUs:  map[string]float64{},
	}
	for id, rt := range res.R {
		resp.ResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	for _, id := range res.Violations {
		resp.Violations = append(resp.Violations, sys.App.Act(id).Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

type simulateResponse struct {
	MaxResponseUs  map[string]float64 `json:"max_response_us"`
	Completions    map[string]int     `json:"completions"`
	DeadlineMisses int                `json:"deadline_misses"`
	Unfinished     int                `json:"unfinished"`
}

func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request, req *configuredRequest) {
	sys, cfg, ok := parseConfigured(w, req)
	if !ok {
		return
	}
	simOpts := sim.DefaultOptions()
	if req.Repetitions > 0 {
		simOpts.Repetitions = req.Repetitions
	}
	var (
		res  *sim.Result
		sErr error
	)
	if err := s.compute(r.Context(), func() {
		var table *schedule.Table
		table, _, sErr = sched.Build(sys, cfg, sched.DefaultOptions())
		if sErr != nil {
			sErr = fmt.Errorf("schedule construction failed: %w", sErr)
			return
		}
		var simulator *sim.Simulator
		simulator, sErr = sim.New(sys, cfg, table, simOpts)
		if sErr != nil {
			return
		}
		res, sErr = simulator.Run()
	}); err != nil {
		computeError(w, err)
		return
	}
	if sErr != nil {
		httpError(w, http.StatusUnprocessableEntity, sErr.Error())
		return
	}
	s.engine.Add(campaign.EngineStats{Evaluations: 1})
	resp := simulateResponse{
		MaxResponseUs:  map[string]float64{},
		Completions:    map[string]int{},
		DeadlineMisses: res.DeadlineMisses,
		Unfinished:     res.Unfinished,
	}
	for id, rt := range res.MaxResponse {
		resp.MaxResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	for id, n := range res.Completions {
		resp.Completions[sys.App.Act(id).Name] = n
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseConfigured resolves the shared {system, config} request shape.
func parseConfigured(w http.ResponseWriter, req *configuredRequest) (*model.System, *flexray.Config, bool) {
	sys, ok := parseSystem(w, req.System)
	if !ok {
		return nil, nil, false
	}
	if len(req.Config) == 0 {
		httpErrorCode(w, http.StatusBadRequest, codeMissingConfig, "missing \"config\"")
		return nil, nil, false
	}
	cfg, err := flexray.ReadJSON(bytes.NewReader(req.Config), sys)
	if err != nil {
		httpErrorCode(w, http.StatusBadRequest, codeInvalidConfig, err.Error())
		return nil, nil, false
	}
	if err := cfg.Validate(flexray.DefaultParams(), sys); err != nil {
		httpErrorCode(w, http.StatusUnprocessableEntity, codeInvalidConfig, fmt.Sprintf("invalid configuration: %v", err))
		return nil, nil, false
	}
	return sys, cfg, true
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err.Error())
		return false
	}
	return true
}

func parseSystem(w http.ResponseWriter, raw json.RawMessage) (*model.System, bool) {
	if len(raw) == 0 {
		httpErrorCode(w, http.StatusBadRequest, codeMissingSystem, "missing \"system\"")
		return nil, false
	}
	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		httpErrorCode(w, http.StatusBadRequest, codeInvalidSystem, err.Error())
		return nil, false
	}
	return sys, true
}

func marshalConfig(cfg *flexray.Config, sys *model.System) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf, sys); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		slog.Error("encoding response", "error", err)
	}
}
