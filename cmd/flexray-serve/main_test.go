package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/synth"
)

// mustServer builds a server over cfg and tears the job subsystem down
// with the test.
func mustServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		// The polling helpers issue hundreds of requests; keep the
		// request log out of the test output.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("job shutdown: %v", err)
		}
	})
	return ts
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return mustServer(t, serverConfig{
		Workers:       2,
		MaxConcurrent: 2,
		Timeout:       5 * time.Minute,
	})
}

func systemJSON(t *testing.T, sys *model.System) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func genSystem(t *testing.T, nodes int, seed int64) *model.System {
	t.Helper()
	sp := synth.DefaultParams(nodes, seed)
	sp.DeadlineFactor = 2.0
	sys, err := synth.Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// quickOpts mirror the reduced budgets used by the request below.
func quickServeOptions() map[string]any {
	return map[string]any{
		"dyn_grid_cap":    24,
		"slot_count_cap":  2,
		"slot_len_steps":  3,
		"max_evaluations": 300,
	}
}

func quickCoreOpts() core.Options {
	o := core.DefaultOptions()
	o.DYNGridCap = 24
	o.SlotCountCap = 2
	o.SlotLenSteps = 3
	o.MaxEvaluations = 300
	return o
}

// TestOptimizeAnalyzeSimulate drives the full API: optimise a generated
// system, feed the returned configuration to /v1/analyze, then to
// /v1/simulate, and cross-check the reported costs against a direct
// library run.
func TestOptimizeAnalyzeSimulate(t *testing.T) {
	ts := testServer(t)
	sys := genSystem(t, 2, 5)
	sysJSON := systemJSON(t, sys)

	resp, body := post(t, ts, "/v1/optimize", map[string]any{
		"system":     json.RawMessage(sysJSON),
		"algorithms": []string{"bbc", "obc-cf"},
		"options":    quickServeOptions(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	var opt optimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	if len(opt.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(opt.Runs))
	}

	// Parity: the served best cost must equal the library's.
	sys2, err := model.ReadJSON(bytes.NewReader(sysJSON))
	if err != nil {
		t.Fatal(err)
	}
	wantBBC, err := core.BBC(sys2, quickCoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantCF, err := core.OBCCF(sys2, quickCoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := wantBBC.Cost
	if wantCF.Cost < want {
		want = wantCF.Cost
	}
	if opt.Best.Cost != want {
		t.Errorf("served best cost %v, want %v", opt.Best.Cost, want)
	}

	// The returned configuration must analyse to the same cost.
	resp, body = post(t, ts, "/v1/analyze", map[string]any{
		"system": json.RawMessage(sysJSON),
		"config": opt.Best.Config,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, body)
	}
	var ana jobs.AnalyzeResult
	if err := json.Unmarshal(body, &ana); err != nil {
		t.Fatal(err)
	}
	if ana.Cost != opt.Best.Cost || ana.Schedulable != opt.Best.Schedulable {
		t.Errorf("analyze (cost, schedulable) = (%v, %v), optimize said (%v, %v)",
			ana.Cost, ana.Schedulable, opt.Best.Cost, opt.Best.Schedulable)
	}
	if len(ana.ResponseUs) == 0 {
		t.Error("analyze returned no response times")
	}

	resp, body = post(t, ts, "/v1/simulate", map[string]any{
		"system": json.RawMessage(sysJSON),
		"config": opt.Best.Config,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d: %s", resp.StatusCode, body)
	}
	var simr jobs.SimulateResult
	if err := json.Unmarshal(body, &simr); err != nil {
		t.Fatal(err)
	}
	if len(simr.MaxResponseUs) == 0 {
		t.Error("simulate returned no observed responses")
	}
	// Observed responses never exceed the analysis bounds.
	for name, obs := range simr.MaxResponseUs {
		if bound, ok := ana.ResponseUs[name]; ok && obs > bound+1e-6 {
			t.Errorf("%s: observed %v µs exceeds analysed bound %v µs", name, obs, bound)
		}
	}
}

// TestOptimizeCruiseParity is the acceptance criterion: the cruise
// controller round-tripped through POST /v1/optimize returns the same
// best cost as the flexray-opt CLI path (core.OBCCF on the decoded
// interchange JSON with default options).
func TestOptimizeCruiseParity(t *testing.T) {
	ts := testServer(t)
	sys, err := cruise.System()
	if err != nil {
		t.Fatal(err)
	}
	sysJSON := systemJSON(t, sys)

	resp, body := post(t, ts, "/v1/optimize", map[string]any{
		"system":     json.RawMessage(sysJSON),
		"algorithms": []string{"obc-cf"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	var opt optimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}

	// What `flexray-opt -algo obc-cf -in cruise.json` computes.
	cliSys, err := model.ReadJSON(bytes.NewReader(sysJSON))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.OBCCF(cliSys, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Best.Cost != cli.Cost {
		t.Errorf("served cost %v, CLI cost %v", opt.Best.Cost, cli.Cost)
	}
	if !opt.Best.Schedulable {
		t.Error("cruise controller not schedulable through the API (paper: OBC-CF configures it)")
	}
}

// TestBadRequests exercises the request validation paths.
func TestBadRequests(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		path string
		body string
		want int
	}{
		{"/v1/optimize", `{`, http.StatusBadRequest},
		{"/v1/optimize", `{}`, http.StatusBadRequest},
		{"/v1/optimize", `{"system": {"name": "x"}}`, http.StatusBadRequest},
		{"/v1/analyze", `{"system": {"name": "x"}}`, http.StatusBadRequest},
		{"/v1/simulate", `{}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	// Unknown algorithm is a semantic error.
	sys := genSystem(t, 2, 5)
	resp, _ := post(t, ts, "/v1/optimize", map[string]any{
		"system":     systemJSON(t, sys),
		"algorithms": []string{"genetic"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown algorithm: %d, want 422", resp.StatusCode)
	}
	// An algorithm listed twice, in any spelling, is a bad request on
	// both the synchronous and the job path.
	for _, algs := range [][]string{{"bbc", "BBC"}, {"obc-cf", "ObcCf"}} {
		resp, _ := post(t, ts, "/v1/optimize", map[string]any{
			"system":     systemJSON(t, sys),
			"algorithms": algs,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("optimize %q: %d, want 400", algs, resp.StatusCode)
		}
		resp, _ = post(t, ts, "/v1/jobs", map[string]any{
			"kind":       "optimize",
			"system":     systemJSON(t, sys),
			"algorithms": algs,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("optimize job %q: %d, want 400", algs, resp.StatusCode)
		}
	}
}

// TestRequestGuards pins the request-shaping paths shared by every
// POST endpoint: oversized body → 413, malformed JSON → 400, wrong
// method → 405, non-JSON content type → 415.
func TestRequestGuards(t *testing.T) {
	ts := mustServer(t, serverConfig{MaxBody: 256, Timeout: time.Minute, MaxConcurrent: 2})
	endpoints := []string{"/v1/optimize", "/v1/analyze", "/v1/simulate", "/v1/jobs"}
	big := fmt.Sprintf(`{"system": %q}`, strings.Repeat("x", 1024))
	for _, path := range endpoints {
		for _, tc := range []struct {
			name        string
			method      string
			contentType string
			body        string
			want        int
		}{
			{"oversized body", http.MethodPost, "application/json", big, http.StatusRequestEntityTooLarge},
			{"malformed JSON", http.MethodPost, "application/json", `{"system": `, http.StatusBadRequest},
			{"method not allowed", http.MethodPut, "application/json", `{}`, http.StatusMethodNotAllowed},
			{"non-JSON content type", http.MethodPost, "text/plain", `{}`, http.StatusUnsupportedMediaType},
		} {
			req, err := http.NewRequest(tc.method, ts.URL+path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s (%s): status %d, want %d", tc.method, path, tc.name, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestHealthz: the combined /healthz probe is gone; what it reported
// lives on /metrics — build identity, uptime, engine counters and the
// job subsystem's state.
func TestHealthz(t *testing.T) {
	ts := testServer(t)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /healthz: %d, want 404", resp.StatusCode)
	}
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"flexray_build_info{", "process_uptime_seconds ",
		"flexray_engine_evaluations_total ", "flexray_jobs_state{",
		"flexray_jobs_result_bytes ", "flexray_store_size_bytes ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
}

// TestHealthzStoreStats: with a -store file, /metrics reports the
// store's on-disk size, the retained result bytes and the compaction
// count — the signals operators alert on for unbounded growth.
func TestHealthzStoreStats(t *testing.T) {
	store, err := jobs.NewFileStore(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(serverConfig{
		Workers: 1, MaxConcurrent: 2, Timeout: time.Minute,
		JobStore: store, JobWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})

	job := submitJob(t, ts, campaignSpec([]int{2}, 1, 3))
	pollJob(t, ts, job.ID, jobs.StatusDone)

	if v := scrapeMetric(t, ts.URL, "flexray_store_size_bytes", ""); v <= 0 {
		t.Errorf("flexray_store_size_bytes %v, want > 0 with a file store", v)
	}
	if v := scrapeMetric(t, ts.URL, "flexray_jobs_result_bytes", ""); v <= 0 {
		t.Errorf("flexray_jobs_result_bytes %v, want > 0 after a finished job", v)
	}
	if v := scrapeMetric(t, ts.URL, "flexray_store_compactions_total", ""); v != 0 {
		t.Errorf("flexray_store_compactions_total %v before any compaction, want 0", v)
	}
	if err := s.jobs.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := scrapeMetric(t, ts.URL, "flexray_store_compactions_total", ""); v != 1 {
		t.Errorf("flexray_store_compactions_total %v after Compact, want 1", v)
	}
}

// TestComputePanicRecovered: a computation that panics on its heavy
// slot answers 500 "internal" instead of killing the process, and
// frees the slot: with -max-concurrent 1, the next /v1/analyze and
// /livez still answer 200.
func TestComputePanicRecovered(t *testing.T) {
	s, err := newServer(serverConfig{
		Workers: 1, MaxConcurrent: 1, Timeout: time.Minute,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("POST /v1/panic", func(w http.ResponseWriter, r *http.Request) {
		if err := s.compute(r.Context(), func() { panic("injected") }); err != nil {
			computeError(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})

	resp, raw := post(t, ts, "/v1/panic", map[string]any{})
	var env decodedEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("panicking computation: %d %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Fatalf("panicking computation: %d %q, want 500 internal: %s", resp.StatusCode, env.Error.Code, raw)
	}
	resp, raw = post(t, ts, "/v1/analyze", map[string]any{
		"system": json.RawMessage(lintFixture(t, "valid_sys.json")),
		"config": json.RawMessage(lintFixture(t, "valid_cfg.json")),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after the panic: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := get(t, ts, "/livez"); resp.StatusCode != http.StatusOK {
		t.Fatalf("livez after the panic: %d %s", resp.StatusCode, raw)
	}
}

// TestPprofDisabled: without -pprof the profiling endpoints do not
// exist — they must 404, not 405 or 200.
func TestPprofDisabled(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without -pprof: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestPprofEnabled: with -pprof the index answers.
func TestPprofEnabled(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 1,
		Timeout:       time.Minute,
		Pprof:         true,
	})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ with -pprof: status %d, want 200", resp.StatusCode)
	}
}
