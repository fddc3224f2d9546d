package main

import (
	"math"
	"os"
	"testing"
)

func loadScrape(t *testing.T, path string) scrape {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseScrape(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The fixtures are two real GET /metrics bodies of flexray-serve, taken
// before and after one POST /v1/optimize of the cruise system.
func TestScrapeDeltaFixture(t *testing.T) {
	before := loadScrape(t, "testdata/scrape-before.txt")
	after := loadScrape(t, "testdata/scrape-after.txt")

	sum, n := histDelta(before, after, "flexray_http_request_duration_seconds", "route", "/v1/optimize")
	if n != 1 || sum <= 0 || sum > 60 {
		t.Errorf("optimize latency histogram gained %v observations summing %vs, want one", n, sum)
	}
	if d := delta(before, after, "flexray_http_requests_total", "route", "/v1/optimize", "code", "200"); d != 1 {
		t.Errorf("optimize request counter moved by %v, want 1", d)
	}
	// The cruise portfolio's engine counters are deterministic.
	for name, want := range map[string]float64{
		"flexray_engine_evaluations_total":  2350,
		"flexray_engine_cache_hits_total":   487,
		"flexray_engine_cache_misses_total": 2350,
		"flexray_lease_granted_total":       0, // summed over both route labels
	} {
		if d := delta(before, after, name); d != want {
			t.Errorf("%s moved by %v, want %v", name, d, want)
		}
	}
	if _, n := histDelta(before, after, "flexray_store_append_seconds"); n != 0 {
		t.Errorf("an optimize request appended %v store records", n)
	}
	if got := before.sum("flexray_jobs_state", "state", "done"); got != 0 {
		t.Errorf("fresh server reports %v done jobs", got)
	}
}

func TestParseSample(t *testing.T) {
	for _, tc := range []struct {
		line   string
		name   string
		labels map[string]string
		value  float64
	}{
		{`up 1`, "up", map[string]string{}, 1},
		{`up{} 2`, "up", map[string]string{}, 2},
		{`x_total{route="/v1/jobs/{id}",code="200"} 3`, "x_total", map[string]string{"route": "/v1/jobs/{id}", "code": "200"}, 3},
		{`x{k="a\"b",l="c\\d\ne"} 4`, "x", map[string]string{"k": `a"b`, "l": "c\\d\ne"}, 4},
		{`x{k="v", l="w"} 5 1700000000000`, "x", map[string]string{"k": "v", "l": "w"}, 5},
		{`x_bucket{le="+Inf"} +Inf`, "x_bucket", map[string]string{"le": "+Inf"}, math.Inf(1)},
	} {
		s, err := parseSample(tc.line)
		if err != nil {
			t.Errorf("%s: %v", tc.line, err)
			continue
		}
		if s.name != tc.name || s.value != tc.value || len(s.labels) != len(tc.labels) {
			t.Errorf("%s: got %s %v %v", tc.line, s.name, s.labels, s.value)
			continue
		}
		for k, v := range tc.labels {
			if s.labels[k] != v {
				t.Errorf("%s: label %s = %q, want %q", tc.line, k, s.labels[k], v)
			}
		}
	}
	for _, bad := range []string{`up`, `x{k="v" 1`, `x{k=v} 1`, `x{k="v"} one`, `{k="v"} 1`} {
		if _, err := parseSample(bad); err == nil {
			t.Errorf("%s: parsed", bad)
		}
	}
}
