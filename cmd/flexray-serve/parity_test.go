package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray/flexraytest"
	"repro/internal/jobs"
	"repro/internal/model"
)

// unfinishedConfig is the configuration of the simulator's soundness
// fuzz input (nodes 1, seed 7, BBC, perturbation 11): a BBC
// configuration of the 3-node synthetic system of seed 7 with the
// perturbation of seed 11 applied. It passes Validate; its simulation
// misses 40 deadlines and ends with 2 unfinished instances.
func unfinishedConfig(t *testing.T, sys *model.System) json.RawMessage {
	t.Helper()
	o := core.DefaultOptions()
	o.DYNGridCap = 8
	o.MaxEvaluations = 24
	o.SAIterations = 24
	bbc, err := core.BBC(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flexraytest.Perturb(rand.New(rand.NewSource(11)), bbc.Config, sys.App.Messages(int(model.DYN)))
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf, sys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAny decodes a JSON body into the generic value tree.
func decodeAny(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v
}

// compactJSON is the whitespace-free form of a JSON value.
func compactJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// jobResult runs one job to done and returns its decoded result.
func jobResult(t *testing.T, ts *httptest.Server, spec map[string]any) map[string]any {
	t.Helper()
	job := submitJob(t, ts, spec)
	pollJob(t, ts, job.ID, jobs.StatusDone)
	resp, body := get(t, ts, "/v1/jobs/"+job.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: %d: %s", job.ID, resp.StatusCode, body)
	}
	return decodeAny(t, body)
}

// withoutElapsed drops the wall-clock field of every optimiser run.
func withoutElapsed(runs any) any {
	list, _ := runs.([]any)
	for _, r := range list {
		if m, ok := r.(map[string]any); ok {
			delete(m, "elapsed_us")
		}
	}
	return list
}

// TestSyncJobParity: the synchronous endpoints and the job kinds answer
// each question with one implementation. On the cruise system (all four
// optimisers, default budgets) and on a synthetic system, POST
// /v1/optimize agrees with an optimize job on the best cost,
// configuration and runs; and every field of /v1/analyze and
// /v1/simulate appears, with the same value, in the analyze and
// simulate sweep points of the same configurations. The synthetic
// system's second configuration ends its simulation with unfinished
// instances.
func TestSyncJobParity(t *testing.T) {
	cruiseSys, err := cruise.System()
	if err != nil {
		t.Fatal(err)
	}
	synthSys := genSystem(t, 3, 7)
	cases := []struct {
		name    string
		sys     *model.System
		options map[string]any
		extra   []json.RawMessage
	}{
		{name: "cruise", sys: cruiseSys},
		{name: "synth", sys: synthSys, options: quickServeOptions(),
			extra: []json.RawMessage{unfinishedConfig(t, synthSys)}},
	}
	ts := testServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sysJSON := systemJSON(t, tc.sys)
			resp, body := post(t, ts, "/v1/optimize", map[string]any{
				"system": sysJSON, "options": tc.options,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
			}
			sync := decodeAny(t, body)
			job := jobResult(t, ts, map[string]any{
				"kind": "optimize", "system": sysJSON, "tuning": tc.options,
			})["optimize"].(map[string]any)
			best := sync["best"].(map[string]any)
			if best["cost"] != job["cost"] || best["algorithm"] != job["algorithm"] {
				t.Errorf("best %v at %v, optimize job %v at %v", best["algorithm"], best["cost"], job["algorithm"], job["cost"])
			}
			if a, b := compactJSON(t, best["config"]), compactJSON(t, job["config"]); a != b {
				t.Errorf("best config differs:\nsync %s\njob  %s", a, b)
			}
			if a, b := compactJSON(t, withoutElapsed(sync["runs"])), compactJSON(t, withoutElapsed(job["runs"])); a != b {
				t.Errorf("runs differ:\nsync %s\njob  %s", a, b)
			}

			configs := append([]json.RawMessage{[]byte(compactJSON(t, best["config"]))}, tc.extra...)
			unfinished := 0
			for _, mode := range []string{"analyze", "simulate"} {
				points := jobResult(t, ts, map[string]any{
					"kind": "sweep", "mode": mode, "system": sysJSON, "configs": configs, "workers": 2,
				})["sweep"].([]any)
				if len(points) != len(configs) {
					t.Fatalf("%s sweep: %d points, want %d", mode, len(points), len(configs))
				}
				for i, cfg := range configs {
					resp, body := post(t, ts, "/v1/"+mode, map[string]any{"system": sysJSON, "config": cfg})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s config %d: %d: %s", mode, i, resp.StatusCode, body)
					}
					point := points[i].(map[string]any)
					if e, ok := point["error"]; ok {
						t.Fatalf("%s point %d failed: %v", mode, i, e)
					}
					for key, want := range decodeAny(t, body) {
						if got, ok := point[key]; !ok || !reflect.DeepEqual(got, want) {
							t.Errorf("%s config %d: %q = %v in the sweep point, %v from /v1/%s",
								mode, i, key, got, want, mode)
						}
					}
					if n, ok := point["unfinished"].(float64); ok {
						unfinished += int(n)
					}
				}
			}
			if tc.extra != nil && unfinished == 0 {
				t.Error("no simulated configuration ended with unfinished instances")
			}
		})
	}
}
