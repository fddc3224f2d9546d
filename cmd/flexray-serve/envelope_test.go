package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// decodedEnvelope mirrors the wire shape of every /v1/* error.
type decodedEnvelope struct {
	Error struct {
		Code    string          `json:"code"`
		Message string          `json:"message"`
		Details json.RawMessage `json:"details"`
	} `json:"error"`
}

// decodeEnvelope asserts a response body is the structured error
// envelope and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response) decodedEnvelope {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error Content-Type %q, want application/json (body %q)", ct, body)
	}
	var env decodedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("envelope without a code: %s", body)
	}
	if env.Error.Message == "" {
		t.Fatalf("envelope without a message: %s", body)
	}
	return env
}

// TestErrorEnvelopeSweep drives every /v1/* error path — handler
// rejections, the shared decode pipeline, the mux's own 404/405, job
// lookups and the lease API — and asserts each one answers the
// structured {"error": {"code", "message"}} envelope with a stable
// code. This is the contract the README documents; anything that
// regresses to a bare-string body fails here.
func TestErrorEnvelopeSweep(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		MaxBody:       4096,
	})
	get := func(path string) (*http.Response, error) { return http.Get(ts.URL + path) }
	postJSON := func(path, body string) (*http.Response, error) {
		return http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	}
	method := func(m, path string) (*http.Response, error) {
		req, _ := http.NewRequest(m, ts.URL+path, strings.NewReader("{}"))
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
		code string
	}{
		// The mux's own answers, rewritten by the envelope middleware.
		{"unknown endpoint", func() (*http.Response, error) { return get("/v1/nope") },
			http.StatusNotFound, "not_found"},
		{"unknown job subresource", func() (*http.Response, error) { return get("/v1/jobs/x/nope") },
			http.StatusNotFound, "not_found"},
		{"optimize wrong method", func() (*http.Response, error) { return get("/v1/optimize") },
			http.StatusMethodNotAllowed, "method_not_allowed"},
		{"lint wrong method", func() (*http.Response, error) { return method(http.MethodDelete, "/v1/lint") },
			http.StatusMethodNotAllowed, "method_not_allowed"},
		{"leases wrong method", func() (*http.Response, error) { return get("/v1/leases/claim") },
			http.StatusMethodNotAllowed, "method_not_allowed"},

		// The shared decode pipeline.
		{"wrong content type", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader("{}"))
		}, http.StatusUnsupportedMediaType, "unsupported_media_type"},
		{"oversized body", func() (*http.Response, error) {
			return postJSON("/v1/analyze", string(bytes.Repeat([]byte(" "), 8192))+"{}")
		}, http.StatusRequestEntityTooLarge, "too_large"},
		{"malformed json", func() (*http.Response, error) { return postJSON("/v1/simulate", "{") },
			http.StatusBadRequest, "invalid_request"},

		// Handler-level rejections with specific codes.
		{"missing system", func() (*http.Response, error) { return postJSON("/v1/optimize", "{}") },
			http.StatusBadRequest, "missing_system"},
		{"invalid system", func() (*http.Response, error) {
			return postJSON("/v1/optimize", `{"system": {"name": "x"}}`)
		}, http.StatusBadRequest, "invalid_system"},
		{"missing config", func() (*http.Response, error) {
			sys := string(lintFixture(t, "valid_sys.json"))
			return postJSON("/v1/analyze", `{"system": `+sys+`}`)
		}, http.StatusBadRequest, "missing_config"},
		{"lint unknown pack", func() (*http.Response, error) {
			sys := string(lintFixture(t, "valid_sys.json"))
			return postJSON("/v1/lint", `{"system": `+sys+`, "packs": ["nope"]}`)
		}, http.StatusBadRequest, "unknown_pack"},
		{"job spec rejected", func() (*http.Response, error) {
			return postJSON("/v1/jobs", `{"kind": "nope"}`)
		}, http.StatusBadRequest, "invalid_request"},

		// Job lookups.
		{"job not found", func() (*http.Response, error) { return get("/v1/jobs/absent") },
			http.StatusNotFound, "not_found"},
		{"job result not found", func() (*http.Response, error) { return get("/v1/jobs/absent/result") },
			http.StatusNotFound, "not_found"},
		{"job trace not found", func() (*http.Response, error) { return get("/v1/jobs/absent/spans") },
			http.StatusNotFound, "not_found"},
		{"job spans not found", func() (*http.Response, error) { return get("/v1/jobs/absent/spans") },
			http.StatusNotFound, "not_found"},
		{"job events not found", func() (*http.Response, error) { return get("/v1/jobs/absent/events") },
			http.StatusNotFound, "not_found"},
		{"job cancel not found", func() (*http.Response, error) { return method(http.MethodDelete, "/v1/jobs/absent") },
			http.StatusNotFound, "not_found"},
		{"bad status filter", func() (*http.Response, error) { return get("/v1/jobs?status=bogus") },
			http.StatusBadRequest, "invalid_request"},

		// Span store disabled in this server config.
		{"trace disabled", func() (*http.Response, error) { return get("/v1/traces/0123456789abcdef0123456789abcdef") },
			http.StatusNotFound, "not_found"},

		// The lease API speaks the same envelope.
		{"lease claim without worker", func() (*http.Response, error) {
			return postJSON("/v1/leases/claim", "{}")
		}, http.StatusBadRequest, "invalid_request"},
		{"lease renew unknown id", func() (*http.Response, error) {
			return postJSON("/v1/leases/absent/renew", `{"worker": "w1"}`)
		}, http.StatusNotFound, "lease_not_found"},
		{"lease complete unknown id", func() (*http.Response, error) {
			return postJSON("/v1/leases/absent/complete", `{"worker": "w1"}`)
		}, http.StatusNotFound, "lease_not_found"},
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
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.want, env.Error.Message)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", env.Error.Code, tc.code, env.Error.Message)
			}
		})
	}
}
