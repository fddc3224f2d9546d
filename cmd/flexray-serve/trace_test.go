package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// tracedServer builds a server with head sampling at 1.0 and
// phase-level optimiser spans, so every request records a full trace.
func tracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	return mustServer(t, serverConfig{
		Workers:       2,
		MaxConcurrent: 2,
		Timeout:       5 * time.Minute,
		TraceSample:   1,
		TraceDetail:   "phase",
	})
}

// fetchTrace downloads and decodes GET /v1/traces/{id} (JSONL, one
// OTLP-shaped span per line).
func fetchTrace(t *testing.T, ts *httptest.Server, traceID string) []obs.SpanData {
	t.Helper()
	resp, body := get(t, ts, "/v1/traces/"+traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: %d: %s", traceID, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("trace Content-Type %q, want application/jsonl", ct)
	}
	var spans []obs.SpanData
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var sd obs.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("decoding span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sd)
	}
	return spans
}

// TestEndToEndTrace is the acceptance path of the tracing subsystem: a
// job submission carrying an external W3C traceparent must yield one
// assembled trace spanning serve → jobs → campaign → optimizer, with
// the external span as the root parent. Run under -race it also
// exercises concurrent span production from the campaign workers.
func TestEndToEndTrace(t *testing.T) {
	ts := tracedServer(t)

	const (
		extTrace  = "4bf92f3577b34da6a3ce929d0e0e4736"
		extParent = "00f067aa0ba902b7"
		extTP     = "00-" + extTrace + "-" + extParent + "-01"
	)
	spec := map[string]any{
		"kind":       "optimize",
		"algorithms": []string{"obc-cf", "sa"},
		"tuning":     quickServeOptions(),
		"system":     json.RawMessage(systemJSON(t, genSystem(t, 2, 11))),
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", extTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// The response must echo the continued trace identity.
	if got := resp.Header.Get("X-Trace-Id"); got != extTrace {
		t.Fatalf("X-Trace-Id = %q, want the external trace %q", got, extTrace)
	}
	tp := resp.Header.Get("traceparent")
	httpSC, err := obs.ParseTraceparent(tp)
	if err != nil || httpSC.TraceID.String() != extTrace {
		t.Fatalf("response traceparent %q (err %v), want trace %s", tp, err, extTrace)
	}
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}

	done := pollJob(t, ts, job.ID, jobs.StatusDone)
	if done.TraceID != extTrace {
		t.Fatalf("job trace_id %q, want %q", done.TraceID, extTrace)
	}
	if done.StartedAt.IsZero() || done.FinishedAt.IsZero() {
		t.Fatal("terminal job carries no start and finish times to summarise")
	}

	spans := fetchTrace(t, ts, extTrace)
	byName := map[string][]obs.SpanData{}
	byID := map[obs.SpanID]obs.SpanData{}
	for _, sd := range spans {
		if sd.TraceID.String() != extTrace {
			t.Fatalf("span %q in trace %s, want %s", sd.Name, sd.TraceID, extTrace)
		}
		byName[sd.Name] = append(byName[sd.Name], sd)
		byID[sd.SpanID] = sd
	}

	// Every layer must be present.
	for _, name := range []string{
		"http POST /v1/jobs",                           // serve
		"job", "job.queued", "job.run", "store.append", // jobs
		"campaign.system",      // campaign
		"opt.OBC-CF", "opt.SA", // optimizer runs
		// Optimizer phases (GranPhase). OBC-CF's curve-fit phases only
		// appear when the seed sweep fails to find a feasible
		// configuration, so its guaranteed phase is the seed sweep.
		"obc.seed", "sa.anneal",
	} {
		if len(byName[name]) == 0 {
			names := make([]string, 0, len(byName))
			for n := range byName {
				names = append(names, n)
			}
			t.Fatalf("trace lacks %q span; have %s", name, strings.Join(names, ", "))
		}
	}

	// Parent links: external span → http request → job → run →
	// campaign.system → opt.* → phase.
	httpSpan := byName["http POST /v1/jobs"][0]
	if httpSpan.Parent.String() != extParent {
		t.Errorf("http span parent %s, want external %s", httpSpan.Parent, extParent)
	}
	jobSpan := byName["job"][0]
	if jobSpan.Parent != httpSpan.SpanID {
		t.Errorf("job span parent %s, want http span %s", jobSpan.Parent, httpSpan.SpanID)
	}
	runSpan := byName["job.run"][0]
	if runSpan.Parent != jobSpan.SpanID {
		t.Errorf("job.run parent %s, want job %s", runSpan.Parent, jobSpan.SpanID)
	}
	sysSpan := byName["campaign.system"][0]
	if sysSpan.Parent != runSpan.SpanID {
		t.Errorf("campaign.system parent %s, want job.run %s", sysSpan.Parent, runSpan.SpanID)
	}
	for _, opt := range []string{"opt.OBC-CF", "opt.SA"} {
		if got := byName[opt][0].Parent; got != sysSpan.SpanID {
			t.Errorf("%s parent %s, want campaign.system %s", opt, got, sysSpan.SpanID)
		}
	}
	if got := byName["sa.anneal"][0].Parent; byID[got].Name != "opt.SA" {
		t.Errorf("sa.anneal parent is %q, want opt.SA", byID[got].Name)
	}
	if got := byName["obc.seed"][0].Parent; byID[got].Name != "opt.OBC-CF" {
		t.Errorf("obc.seed parent is %q, want opt.OBC-CF", byID[got].Name)
	}

	// GET /v1/jobs/{id}/spans combines the summary derived from the
	// job's timestamps with the live trace.
	resp2, body := get(t, ts, "/v1/jobs/"+job.ID+"/spans")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("job spans: %d: %s", resp2.StatusCode, body)
	}
	var js jobSpansResponse
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.TraceID != extTrace || len(js.Summary) == 0 || len(js.Spans) != len(spans) {
		t.Errorf("job spans payload trace=%q summary=%d spans=%d, want %q/nonzero/%d",
			js.TraceID, len(js.Summary), len(js.Spans), extTrace, len(spans))
	}

	// The latency histogram carries the trace as an OpenMetrics
	// exemplar.
	mreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), `trace_id="`) {
		t.Error("OpenMetrics scrape carries no exemplars after traced requests")
	}
}

// TestTraceWithoutExternalParent: a plain request starts a fresh
// sampled trace and the response advertises its ID.
func TestTraceFreshRoot(t *testing.T) {
	ts := tracedServer(t)
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 32 {
		t.Fatalf("X-Trace-Id %q, want 32 hex digits", id)
	}
	spans := fetchTrace(t, ts, id)
	if len(spans) != 1 || spans[0].Name != "http GET /livez" || !spans[0].Parent.IsZero() {
		t.Fatalf("fresh trace = %+v, want one parentless http span", spans)
	}
}

// TestTraceDisabled: without -trace-sample/-trace-slow the trace
// surface is inert — no headers, 404 trace lookups — and requests
// carry no span machinery.
func TestTraceDisabled(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("X-Trace-Id %q on an untraced server", got)
	}
	if resp, _ := get(t, ts, "/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace lookup on untraced server: %d, want 404", resp.StatusCode)
	}
}

// TestProbes covers the health endpoints: /livez always OK, /readyz
// flips to 503 while the server sheds load.
func TestProbes(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/livez", "/readyz"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d: %s", path, resp.StatusCode, body)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control %q, want no-store", path, cc)
		}
	}

	// A load shed flips readiness (but never liveness) for shedWindow.
	s, err := newServer(serverConfig{Workers: 1, MaxConcurrent: 1, Timeout: time.Minute,
		Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s)
	t.Cleanup(func() {
		ts2.Close()
		s.Close(context.Background())
	})
	s.markShed()
	resp, body := get(t, ts2, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shed: %d: %s", resp.StatusCode, body)
	}
	var detail map[string]any
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail["shedding"] != true || detail["ready"] != false {
		t.Errorf("readyz payload after shed: %s", body)
	}
	for _, k := range []string{"ready", "accepting_jobs", "queue_depth", "queue_cap", "shedding"} {
		if _, ok := detail[k]; !ok {
			t.Errorf("readyz payload lacks %q: %s", k, body)
		}
	}
	if resp, _ := get(t, ts2, "/livez"); resp.StatusCode != http.StatusOK {
		t.Errorf("livez during shed: %d, want 200", resp.StatusCode)
	}
}

// discardLogger keeps the request log out of test output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
