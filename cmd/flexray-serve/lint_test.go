package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
	"repro/internal/model"
)

// lintFixture reads a fixture from the lint package's testdata, so the
// API tests and the golden-report tests pin the same inputs.
func lintFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "lint", "testdata", name))
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return data
}

func TestLintEndpoint(t *testing.T) {
	ts := testServer(t)
	sys := lintFixture(t, "valid_sys.json")
	cfg := lintFixture(t, "valid_cfg.json")

	resp, body := post(t, ts, "/v1/lint", map[string]any{
		"system": json.RawMessage(sys),
		"config": json.RawMessage(cfg),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint: %d: %s", resp.StatusCode, body)
	}
	var rep lint.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if rep.Schema != lint.Schema {
		t.Fatalf("schema %q, want %q", rep.Schema, lint.Schema)
	}
	if !rep.Scheduled || rep.Summary.Errors != 0 {
		t.Fatalf("scheduled=%v errors=%d: %s", rep.Scheduled, rep.Summary.Errors, body)
	}

	// Pack selection narrows the report.
	resp, body = post(t, ts, "/v1/lint", map[string]any{
		"system": json.RawMessage(sys),
		"packs":  []string{"structure"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structure-only lint: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Pack != lint.PackStructure {
			t.Fatalf("pack %q leaked into a structure-only report", f.Pack)
		}
	}
}

// TestLintGuards is the /v1/lint guard table: the endpoint inherits
// 405/413/415 from the shared decode pipeline and produces its own
// 422 via fail_on — all with the structured envelope.
func TestLintGuards(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		MaxBody:       4096,
	})
	sys := lintFixture(t, "invalid_sys.json")

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
		code string
	}{
		{
			name: "method not allowed",
			do: func() (*http.Response, error) {
				req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/lint", strings.NewReader("{}"))
				req.Header.Set("Content-Type", "application/json")
				return http.DefaultClient.Do(req)
			},
			want: http.StatusMethodNotAllowed, code: "method_not_allowed",
		},
		{
			name: "oversized body",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/v1/lint", "application/json",
					bytes.NewReader(append(bytes.Repeat([]byte(" "), 8192), '{', '}')))
			},
			want: http.StatusRequestEntityTooLarge, code: "too_large",
		},
		{
			name: "wrong content type",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/v1/lint", "text/plain", strings.NewReader("{}"))
			},
			want: http.StatusUnsupportedMediaType, code: "unsupported_media_type",
		},
		{
			name: "fail_on trips 422",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(map[string]any{
					"system":  json.RawMessage(sys),
					"fail_on": "error",
				})
				return http.Post(ts.URL+"/v1/lint", "application/json", bytes.NewReader(body))
			},
			want: http.StatusUnprocessableEntity, code: "lint_failed",
		},
		{
			name: "unknown pack",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(map[string]any{
					"system": json.RawMessage(sys),
					"packs":  []string{"nonsense"},
				})
				return http.Post(ts.URL+"/v1/lint", "application/json", bytes.NewReader(body))
			},
			want: http.StatusBadRequest, code: "unknown_pack",
		},
		{
			name: "unknown severity",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(map[string]any{
					"system":  json.RawMessage(sys),
					"fail_on": "fatal",
				})
				return http.Post(ts.URL+"/v1/lint", "application/json", bytes.NewReader(body))
			},
			want: http.StatusBadRequest, code: "invalid_request",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			env := decodeEnvelope(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

// TestValidateJobsGate is the acceptance path: a known-invalid system
// submitted to /v1/jobs with -validate-jobs on is rejected with a
// structured 422 whose details name the violated rules, and the
// embedded report is identical to what flexray-lint produces for the
// same input.
func TestValidateJobsGate(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		ValidateJobs:  true,
	})
	invalid := lintFixture(t, "invalid_sys.json")

	resp, body := post(t, ts, "/v1/jobs", map[string]any{
		"kind":   "optimize",
		"system": json.RawMessage(invalid),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("gate: %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Details struct {
				Rejected []struct {
					System string      `json:"system"`
					Rules  []string    `json:"rules"`
					Report lint.Report `json:"report"`
				} `json:"rejected"`
			} `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding rejection: %v: %s", err, body)
	}
	if env.Error.Code != "lint_rejected" {
		t.Fatalf("code %q, want lint_rejected", env.Error.Code)
	}
	if len(env.Error.Details.Rejected) != 1 {
		t.Fatalf("rejected %d systems, want 1", len(env.Error.Details.Rejected))
	}
	rej := env.Error.Details.Rejected[0]
	if rej.System != "system" {
		t.Errorf("rejected subject %q, want \"system\"", rej.System)
	}
	wantRules := []string{"SYS002", "SYS003", "SYS004"}
	if len(rej.Rules) != len(wantRules) {
		t.Fatalf("rules %v, want %v", rej.Rules, wantRules)
	}
	for i, r := range wantRules {
		if rej.Rules[i] != r {
			t.Fatalf("rules %v, want %v", rej.Rules, wantRules)
		}
	}
	for _, f := range rej.Report.Findings {
		if f.Status == lint.StatusFail && f.Explanation == "" {
			t.Errorf("rule %s rejected without an explanation", f.Rule)
		}
	}

	// The embedded report is byte-identical to a direct lint run with
	// the gate's options (the same artefact flexray-lint emits).
	sys, err := model.ReadJSON(bytes.NewReader(invalid))
	if err != nil {
		t.Fatal(err)
	}
	opts := lint.DefaultOptions()
	opts.Schedule = false
	direct, err := lint.Run(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rej.Report)
	want, _ := json.Marshal(direct)
	if !bytes.Equal(got, want) {
		t.Errorf("gate report differs from direct lint run:\n%s\n%s", got, want)
	}

	// A clean system still passes the gate.
	resp, body = post(t, ts, "/v1/jobs", map[string]any{
		"kind":   "optimize",
		"system": json.RawMessage(lintFixture(t, "valid_sys.json")),
		"tuning": quickServeOptions(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submission: %d: %s", resp.StatusCode, body)
	}

	// Campaign population uploads are linted individually.
	resp, body = post(t, ts, "/v1/jobs", map[string]any{
		"kind": "campaign",
		"population": map[string]any{
			"systems": []json.RawMessage{lintFixture(t, "valid_sys.json"), invalid},
		},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("campaign gate: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Error.Details.Rejected) != 1 || env.Error.Details.Rejected[0].System != "population[1]" {
		t.Fatalf("campaign rejection details: %s", body)
	}
}

// TestValidateJobsGateOff: without the flag the same spec reaches the
// queue untouched (the gate is strictly opt-in).
func TestValidateJobsGateOff(t *testing.T) {
	ts := testServer(t)
	resp, body := post(t, ts, "/v1/jobs", map[string]any{
		"kind":   "optimize",
		"system": json.RawMessage(lintFixture(t, "invalid_sys.json")),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ungated submission: %d: %s", resp.StatusCode, body)
	}
}

// TestZeroMinislotConfig: a dynamic segment of three zero-length
// minislots is a protocol violation, not a crash. /v1/analyze and
// /v1/simulate answer 422 invalid_config, /v1/lint reports the CFG
// failure, and the server keeps serving.
func TestZeroMinislotConfig(t *testing.T) {
	ts := testServer(t)
	body := map[string]any{
		"system": json.RawMessage(lintFixture(t, "valid_sys.json")),
		"config": json.RawMessage(`{"static_slot_us": 50, "num_static_slots": 2, "slot_owners": [0, 1],
			"minislot_us": 0, "num_minislots": 3, "frame_ids": {"m1": 1, "m2": 2}}`),
	}
	for _, path := range []string{"/v1/analyze", "/v1/simulate"} {
		resp, raw := post(t, ts, path, body)
		var env decodedEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, raw)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != "invalid_config" {
			t.Fatalf("%s: %d %q, want 422 invalid_config: %s", path, resp.StatusCode, env.Error.Code, raw)
		}
		if !strings.Contains(env.Error.Message, "non-positive gdMinislot") {
			t.Errorf("%s: message %q does not name the minislot length", path, env.Error.Message)
		}
	}
	resp, raw := post(t, ts, "/v1/lint", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint: %d: %s", resp.StatusCode, raw)
	}
	var rep lint.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.FailingRules(lint.SeverityError); len(got) != 1 || got[0] != "CFG002" {
		t.Fatalf("failing rules %v, want [CFG002]", got)
	}
	if resp, raw := get(t, ts, "/livez"); resp.StatusCode != http.StatusOK {
		t.Fatalf("livez after the hostile configs: %d %s", resp.StatusCode, raw)
	}
}
