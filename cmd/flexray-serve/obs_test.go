package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestMetricsEndpoint is the acceptance pin for GET /metrics: after
// real traffic (a health probe and a finished campaign job) the scrape
// exposes every layer — HTTP middleware, evaluation engine, job
// manager, store and Go runtime — in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	job := submitJob(t, ts, campaignSpec([]int{2}, 2, 7))
	pollJob(t, ts, job.ID, jobs.StatusDone)

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape content type %q, want the 0.0.4 text format", ct)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response without X-Request-Id")
	}
	text := string(body)
	for _, want := range []string{
		// HTTP middleware: the submit POST got a 202, the health probe
		// a 200, and latency histograms exist per route.
		`flexray_http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		`flexray_http_requests_total{route="/healthz",method="GET",code="200"} 1`,
		`flexray_http_request_duration_seconds_count{route="/v1/jobs/{id}"}`,
		// The scrape observes itself in flight.
		"flexray_http_requests_in_flight 1",
		// Jobs and store.
		"flexray_jobs_submitted_total 1",
		`flexray_jobs_finished_total{status="done"} 1`,
		`flexray_jobs_state{state="done"} 1`,
		"flexray_jobs_queue_depth 0",
		"flexray_jobs_run_seconds_count 1",
		"flexray_store_append_seconds_count",
		// Memory store: no on-disk footprint to report.
		"flexray_store_size_bytes -1",
		// Engine, runtime and process families.
		"flexray_engine_evaluations_total",
		"flexray_engine_cache_hits_total",
		"go_goroutines",
		"go_gc_cycles_total",
		"process_uptime_seconds",
		"flexray_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The campaign evaluated real candidates.
	if strings.Contains(text, "flexray_engine_evaluations_total 0\n") {
		t.Error("engine evaluation counter still zero after a finished campaign")
	}
}

// TestJobTraceEndpoint: a finished campaign job on a fully sampled
// server carries its optimiser convergence curves in
// GET /v1/jobs/{id}/spans — "best" events on every opt.<ALG> span,
// none on phase spans — and unknown jobs answer 404 like the other job
// endpoints; the retired per-job trace route answers 404.
func TestJobTraceEndpoint(t *testing.T) {
	ts := tracedServer(t)
	job := submitJob(t, ts, campaignSpec([]int{2}, 2, 7))
	pollJob(t, ts, job.ID, jobs.StatusDone)

	resp, body := get(t, ts, "/v1/jobs/"+job.ID+"/spans")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job spans: %d: %s", resp.StatusCode, body)
	}
	var js jobSpansResponse
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.DroppedSpans != 0 {
		t.Errorf("small job trace reports %d dropped spans", js.DroppedSpans)
	}
	opts := 0
	for _, sd := range js.Spans {
		if !strings.HasPrefix(sd.Name, "opt.") {
			if len(sd.Events) != 0 {
				t.Errorf("%s span carries %d events; only opt.* spans should", sd.Name, len(sd.Events))
			}
			continue
		}
		opts++
		checkConvergence(t, sd)
	}
	if opts != 4 { // 2 systems x {BBC, OBC-CF}
		t.Errorf("job trace holds %d opt.* spans, want 4", opts)
	}

	for _, path := range []string{"/v1/jobs/j-nope/spans", "/v1/jobs/" + job.ID + "/trace"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// checkConvergence pins the convergence events of one opt.<ALG> span:
// "best" events at strictly increasing evaluation counts with strictly
// falling costs, the last of which is the run's result cost.
func checkConvergence(t *testing.T, sd obs.SpanData) {
	t.Helper()
	if len(sd.Events) == 0 {
		t.Errorf("%s span has no convergence events", sd.Name)
		return
	}
	prevEvals, prevCost := int64(0), math.Inf(1)
	for i, ev := range sd.Events {
		evals, _ := obs.AttrValue(ev.Attrs, "evaluations").(int64)
		cost, ok := obs.AttrValue(ev.Attrs, "cost").(float64)
		if ev.Name != "best" || !ok || evals <= prevEvals || cost >= prevCost {
			t.Errorf("%s event %d = %s evaluations=%d cost=%v after evaluations=%d cost=%v",
				sd.Name, i, ev.Name, evals, cost, prevEvals, prevCost)
		}
		prevEvals, prevCost = evals, cost
	}
	if want := obs.AttrValue(sd.Attrs, "cost"); prevCost != want {
		t.Errorf("%s last event cost %v, span cost %v", sd.Name, prevCost, want)
	}
	if total, _ := obs.AttrValue(sd.Attrs, "evaluations").(int64); prevEvals > total {
		t.Errorf("%s last event at evaluation %d of %d", sd.Name, prevEvals, total)
	}
}

// TestJobSpansDroppedCount: a job trace past the span store's
// per-trace bound reports the dropped count in GET /v1/jobs/{id}/spans
// — the number GET /v1/traces/{id} sends as X-Trace-Dropped-Spans — so
// a truncated convergence view is visible.
func TestJobSpansDroppedCount(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 1,
		Timeout:       time.Minute,
		TraceSample:   1,
		TraceSpans:    64,
	})
	job := submitJob(t, ts, campaignSpec([]int{2}, 1, 7))
	job = pollJob(t, ts, job.ID, jobs.StatusDone)
	id, err := obs.ParseTraceID(job.TraceID)
	if err != nil {
		t.Fatalf("job trace ID %q: %v", job.TraceID, err)
	}
	// Overfill the job's trace: the store keeps 512 spans per trace.
	tracer := ts.Config.Handler.(*server).tracer
	parent := obs.SpanContext{TraceID: id, SpanID: obs.SpanID{1}, Sampled: true}
	for i := 0; i < 600; i++ {
		_, sp := tracer.StartRoot(context.Background(), "filler", parent)
		sp.End()
	}

	resp, body := get(t, ts, "/v1/jobs/"+job.ID+"/spans")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job spans: %d: %s", resp.StatusCode, body)
	}
	var js jobSpansResponse
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	tresp, _ := get(t, ts, "/v1/traces/"+job.TraceID)
	header := tresp.Header.Get("X-Trace-Dropped-Spans")
	if js.DroppedSpans == 0 || header != strconv.Itoa(js.DroppedSpans) {
		t.Errorf("dropped_spans %d, X-Trace-Dropped-Spans %q: want equal and positive",
			js.DroppedSpans, header)
	}
	if len(js.Spans)+js.DroppedSpans < 600 {
		t.Errorf("%d spans + %d dropped, want at least the 600 fillers", len(js.Spans), js.DroppedSpans)
	}
}

// TestPanicRestoresInFlight: a panicking handler (recovered by
// net/http, which keeps the server alive) must still decrement the
// in-flight gauge and record the request as a 500 — otherwise every
// panic permanently inflates flexray_http_requests_in_flight.
func TestPanicRestoresInFlight(t *testing.T) {
	s, err := newServer(serverConfig{
		Workers:       1,
		MaxConcurrent: 1,
		Timeout:       time.Minute,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.route("GET /panic", func(w http.ResponseWriter, r *http.Request) {
		// ErrAbortHandler keeps net/http from dumping a stack trace
		// into the test log; the middleware must handle any value.
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("job shutdown: %v", err)
		}
	})

	if resp, err := http.Get(ts.URL + "/panic"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking handler answered %d, want aborted connection", resp.StatusCode)
	}
	if got := s.inflight.Value(); got != 0 {
		t.Errorf("in-flight gauge %v after panic, want 0", got)
	}
	c := s.reg.Counter("flexray_http_requests_total", helpHTTPRequests,
		"route", "/panic", "method", "GET", "code", "500")
	if got := c.Value(); got != 1 {
		t.Errorf("panic request counted %v times as 500, want 1", got)
	}
	// The server survived the panic.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestHealthzBuildInfo: the probe carries the build identity block and
// forbids intermediary caching.
func TestHealthzBuildInfo(t *testing.T) {
	ts := testServer(t)
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("healthz Cache-Control %q, want no-store", cc)
	}
	var payload struct {
		Build buildInfo `json:"build"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Build.Go == "" || payload.Build.Version == "" || payload.Build.Revision == "" {
		t.Errorf("healthz build block incomplete: %+v", payload.Build)
	}
}

// TestRequestIDPropagation: an upstream-assigned X-Request-Id is
// echoed back unchanged; without one the server mints its own.
func TestRequestIDPropagation(t *testing.T) {
	ts := testServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "upstream-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "upstream-42" {
		t.Errorf("echoed request id %q, want upstream-42", id)
	}
}

// TestSSEThroughMiddleware guards the Flush forwarding: the SSE
// handler type-asserts http.Flusher on the wrapped writer, so a
// middleware regression would turn every event stream into a 500.
func TestSSEThroughMiddleware(t *testing.T) {
	ts := testServer(t)
	job := submitJob(t, ts, campaignSpec([]int{2}, 1, 5))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events through middleware: %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	// Read at least one event to prove the stream flushes.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first event byte: %v", err)
	}
}
