package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the benchmark answers
// for.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONNamesAndLimits(t *testing.T) {
	s := loadSpec(t)
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the grammar", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	for k, w := range s.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if k >= len(code) || code[k] != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %v in the code", k, w.Name, code)
		}
	}
	if len(s.Workloads) != len(code) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(s.Workloads), len(code))
	}
	var setup *specMetric
	for k, m := range s.EndToEnd {
		name("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = &s.EndToEnd[k]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("no setup_s end-to-end metric in seconds, lower better")
	}
	for _, m := range s.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s: bound %v above setup_s's %v; set-up gets the largest", m.Name, *m.Bound, *setup.Bound)
		}
	}
	for _, m := range s.PerLayer {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
}

// TestSmoke runs every workload with one op per phase on tiny inputs,
// tracing off and on, and checks that each workload prints every
// metric BENCHMARK.json names, in its unit, and that the final JSON
// line carries exactly those.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts flexray-serve")
	}
	s := loadSpec(t)
	for _, tc := range []struct {
		trace   string
		metrics []specMetric
	}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
		t.Run("trace"+tc.trace, func(t *testing.T) {
			var stdout bytes.Buffer
			if code := run([]string{"-smoke", "-trace", tc.trace, "-out", t.TempDir()}, &stdout); code != 0 {
				t.Fatalf("exit %d\n%s", code, stdout.String())
			}
			printed := map[string]string{} // "workload metric" → unit
			var last string
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) == 4 {
					printed[f[0]+" "+f[1]] = f[3]
				}
			}
			var final struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(last), &final); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, last)
			}
			if !final.Correct || final.Failed != 0 || final.Attempted < len(workloads) {
				t.Errorf("result: correct %v, attempted %d, failed %d", final.Correct, final.Attempted, final.Failed)
			}
			for _, w := range s.Workloads {
				for _, m := range tc.metrics {
					if unit, ok := printed[w.Name+" "+m.Name]; !ok || unit != m.Unit {
						t.Errorf("%s %s: printed unit %q (printed: %v), want %q", w.Name, m.Name, unit, ok, m.Unit)
					}
					if _, ok := final.Metrics[w.Name+"/"+m.Name]; !ok {
						t.Errorf("%s %s missing from the result object", w.Name, m.Name)
					}
				}
			}
			if want := len(s.Workloads) * len(tc.metrics); len(final.Metrics) != want {
				t.Errorf("result object carries %d metrics, want %d", len(final.Metrics), want)
			}
		})
	}
}
