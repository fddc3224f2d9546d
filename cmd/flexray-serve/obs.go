package main

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Help strings of the HTTP instrument families; shared between the
// per-route registration in route() and the lazy per-status lookup in
// the middleware (a registry requires a consistent help per family).
const (
	helpHTTPRequests = "HTTP requests served, by route, method and status code."
	helpHTTPDuration = "HTTP request latency in seconds, by route (SSE streams count their full lifetime)."
)

// newRegistry assembles the server's metric registry: Go runtime
// stats, process-level gauges, the build-info series and the shared
// evaluation-engine counters. The per-route HTTP families are added by
// route(), the jobs/store families by jobs.NewMetrics.
func (s *server) newRegistry() *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterGoRuntime(r)
	r.GaugeFunc("process_uptime_seconds",
		"Seconds since the server process started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.Gauge("flexray_build_info",
		"Build metadata; the value is always 1.",
		"version", s.build.Version, "go", s.build.Go, "revision", s.build.Revision).Set(1)
	s.inflight = r.Gauge("flexray_http_requests_in_flight",
		"HTTP requests currently being served.")
	return r
}

// bindEngineMetrics exposes the process-wide evaluation-engine totals:
// the job manager counts every computation, synchronous or queued, in
// plain atomics, so a scrape never takes the manager lock. Called from
// newServer once s.jobs exists.
func (s *server) bindEngineMetrics() {
	s.reg.CounterFunc("flexray_engine_evaluations_total",
		"Real schedule+analysis evaluations across all endpoints and jobs.",
		func() float64 { return float64(s.jobs.EngineTotals().Evaluations) })
	s.reg.CounterFunc("flexray_engine_cache_hits_total",
		"Evaluations answered from the campaign engine's cache.",
		func() float64 { return float64(s.jobs.EngineTotals().CacheHits) })
	s.reg.CounterFunc("flexray_engine_cache_misses_total",
		"Evaluations that missed the campaign engine's cache and ran.",
		func() float64 { return float64(s.jobs.EngineTotals().CacheMisses) })
}

// route mounts a handler on the mux wrapped in the observability
// middleware: request counting and latency per route, the in-flight
// gauge, a request ID echoed as X-Request-Id, and one structured log
// line per request. The pattern must be "METHOD /path" (Go 1.22 mux
// syntax); the path half — with its {wildcards} intact — becomes the
// route label, so the label space stays bounded no matter what clients
// request.
func (s *server) route(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("route pattern without method: " + pattern)
	}
	hist := s.reg.Histogram("flexray_http_request_duration_seconds",
		helpHTTPDuration, obs.DefBuckets, "route", path)
	// Pre-create the success series so every route is visible on the
	// first scrape, before it has served traffic.
	s.reg.Counter("flexray_http_requests_total", helpHTTPRequests,
		"route", path, "method", method, "code", "200")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		w.Header().Set("X-Request-Id", id)
		// The root span continues an incoming W3C traceparent or
		// starts a fresh trace; nil (and free) with tracing disabled.
		// The response echoes the trace identity so a client can
		// fetch GET /v1/traces/{id} without having sent a traceparent.
		r, span := s.startRequestSpan(r, method, path, id)
		traceID := ""
		if span.Sampled() {
			traceID = span.TraceID()
			w.Header().Set("X-Trace-Id", traceID)
			w.Header().Set(obs.TraceparentHeader, span.Traceparent())
		}
		s.inflight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		// Deferred so a panicking handler (recovered by net/http, which
		// keeps the server alive) still restores the in-flight gauge and
		// records the request; a panic before any write surfaces as 500.
		defer func() {
			elapsed := time.Since(start)
			s.inflight.Dec()
			code := sw.code
			if code == 0 {
				code = http.StatusOK
				if recovered := recover(); recovered != nil {
					code = http.StatusInternalServerError
					defer panic(recovered) // re-raise for net/http's logging
				}
			}
			span.SetInt("http.status", int64(code))
			if code >= 500 {
				span.Fail(errors.New(http.StatusText(code)))
			}
			span.End()
			s.reg.Counter("flexray_http_requests_total", helpHTTPRequests,
				"route", path, "method", method, "code", strconv.Itoa(code)).Inc()
			// Sampled requests attach their trace ID as an OpenMetrics
			// exemplar on the latency histogram, linking a slow bucket
			// straight to a fetchable trace.
			hist.ObserveExemplar(elapsed.Seconds(), traceID)
			attrs := []slog.Attr{
				slog.String("id", id),
				slog.String("method", method),
				slog.String("route", path),
				slog.Int("status", code),
				slog.Duration("duration", elapsed),
			}
			if traceID != "" {
				attrs = append(attrs, slog.String("trace_id", traceID))
			}
			s.log.LogAttrs(r.Context(), levelFor(path, code), "request", attrs...)
		}()
		h(sw, r)
	})
}

// levelFor keeps the scrape and probe endpoints out of the default log
// stream (they fire every few seconds) while surfacing every failure.
func levelFor(path string, code int) slog.Level {
	switch {
	case code >= 500:
		return slog.LevelError
	case code >= 400:
		return slog.LevelWarn
	case path == "/metrics" || path == "/livez" || path == "/readyz":
		return slog.LevelDebug
	}
	return slog.LevelInfo
}

// reqCounter numbers requests within this process for generated IDs.
var reqCounter atomic.Uint64

// requestID honours an upstream-assigned X-Request-Id (so proxies can
// correlate) and otherwise mints a process-unique one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return "req-" + strconv.FormatUint(reqCounter.Add(1), 10)
}

// statusWriter captures the response status for metrics and logging.
// It forwards Flush so the SSE handler's http.Flusher assertion keeps
// working through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// buildInfo is the build identity exposed as flexray_build_info and
// printed by -version; populated from the binary's embedded build
// metadata.
type buildInfo struct {
	Version, Go, Revision string
}

// readBuildInfo extracts the module version and VCS stamp the Go
// toolchain embeds; `go test` and plain `go run` binaries carry no VCS
// stamp, so every field degrades to a stable placeholder.
func readBuildInfo() buildInfo {
	b := buildInfo{Version: "devel", Go: runtime.Version(), Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Go = bi.GoVersion
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		b.Version = v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			b.Revision = kv.Value
		}
	}
	return b
}

// newLogger builds the process logger for -log-format; the empty
// string means text (the flag default).
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
