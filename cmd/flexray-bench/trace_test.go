package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const fixtureTrace = "4bf92f3577b34da6a3ce929d0e0e4736"

// fixtureSpans is a small deterministic trace: an http root over a job
// span with two children, one of which failed. Self times: the root
// holds 2ms outside the job span, the job holds 1ms outside its
// children.
func fixtureSpans(t *testing.T) []byte {
	t.Helper()
	tid, err := obs.ParseTraceID(fixtureTrace)
	if err != nil {
		t.Fatal(err)
	}
	id := func(b byte) obs.SpanID { return obs.SpanID{b, 2, 3, 4, 5, 6, 7, 8} }
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{TraceID: tid, SpanID: id(1), Name: "http POST /v1/jobs",
			Start: at(0), Duration: 10 * time.Millisecond, Status: obs.StatusOK},
		{TraceID: tid, SpanID: id(2), Parent: id(1), Name: "job",
			Start: at(1), Duration: 8 * time.Millisecond, Status: obs.StatusOK},
		{TraceID: tid, SpanID: id(3), Parent: id(2), Name: "job.queued",
			Start: at(1), Duration: 1 * time.Millisecond, Status: obs.StatusOK},
		{TraceID: tid, SpanID: id(4), Parent: id(2), Name: "job.run",
			Start: at(2), Duration: 6 * time.Millisecond,
			Status: obs.StatusError, StatusMsg: "timeout"},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sd := range spans {
		if err := enc.Encode(sd); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTraceRenderFromFile drives `trace -in` end to end: the JSONL
// fixture round-trips through the OTLP decoder into an aligned tree
// with total/self columns, error annotation and the self-time
// aggregate.
func TestTraceRenderFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, fixtureSpans(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runTrace([]string{"-in", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("runTrace = %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"trace " + fixtureTrace + ": 4 spans, 1 root(s), wall 10ms",
		"http POST /v1/jobs",
		"└─ job",
		"├─ job.queued",
		"└─ job.run",
		"10ms total", // root total
		"2ms self",   // root self = 10ms - 8ms child
		"1ms self",   // job self = 8ms - 1ms - 6ms
		"ERROR: timeout",
		"self time by span", // aggregate table
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// The failed leaf dominates self time, so it tops the aggregate.
	agg := out[strings.Index(out, "self time by span"):]
	lines := strings.Split(agg, "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "job.run") {
		t.Errorf("aggregate not ordered by self time:\n%s", agg)
	}
}

// TestTraceRenderConvergence: optimiser spans with convergence events
// get a summary on their tree row — event count, the last event's
// cost and evaluation count, and the events the per-span bound
// dropped; spans without events get none.
func TestTraceRenderConvergence(t *testing.T) {
	tid, err := obs.ParseTraceID(fixtureTrace)
	if err != nil {
		t.Fatal(err)
	}
	id := func(b byte) obs.SpanID { return obs.SpanID{b, 9, 9, 9, 9, 9, 9, 9} }
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	best := func(ms int, evals int64, cost float64) obs.SpanEvent {
		return obs.SpanEvent{Name: "best", Time: at(ms), Attrs: []obs.Attr{
			obs.IntAttr("evaluations", evals), obs.FloatAttr("cost", cost)}}
	}
	spans := []obs.SpanData{
		{TraceID: tid, SpanID: id(1), Name: "campaign.system", Start: at(0), Duration: 9 * time.Millisecond},
		{TraceID: tid, SpanID: id(2), Parent: id(1), Name: "opt.OBC-CF", Start: at(0), Duration: 4 * time.Millisecond,
			Events: []obs.SpanEvent{best(1, 1, 1184.5), best(2, 40, -3), best(3, 150, -1538672)}},
		{TraceID: tid, SpanID: id(3), Parent: id(1), Name: "opt.SA", Start: at(4), Duration: 5 * time.Millisecond,
			Events: []obs.SpanEvent{best(5, 1, 21567)}, DroppedEvents: 2},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sd := range spans {
		if err := enc.Encode(sd); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runTrace([]string{"-in", path, "-top", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("runTrace = %d: %s", code, stderr.String())
	}
	rows := map[string]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		for _, name := range []string{"campaign.system", "opt.OBC-CF", "opt.SA"} {
			if strings.Contains(line, name+" ") {
				rows[name] = line
			}
		}
	}
	for name, want := range map[string]string{
		"opt.OBC-CF": "  3 events, best -1538672 @ 150 evals",
		"opt.SA":     "  1 events, best 21567 @ 1 evals (+2 dropped)",
	} {
		if !strings.HasSuffix(rows[name], want) {
			t.Errorf("%s row %q does not end in %q", name, rows[name], want)
		}
	}
	if strings.Contains(rows["campaign.system"], "events") {
		t.Errorf("event-less span row carries a convergence summary: %q", rows["campaign.system"])
	}
}

// TestTraceFetchFromServer exercises the -server path against a stub
// serving the /v1/traces/{id} JSONL shape, including the selected-ID
// filter.
func TestTraceFetchFromServer(t *testing.T) {
	fixture := fixtureSpans(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces/"+fixtureTrace {
			http.Error(w, "unknown trace", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.Write(fixture)
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := runTrace([]string{"-server", srv.URL, fixtureTrace}, &stdout, &stderr); code != 0 {
		t.Fatalf("runTrace = %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "4 spans") {
		t.Errorf("fetched trace not rendered:\n%s", stdout.String())
	}

	// An unknown trace surfaces the server's 404 as exit 1.
	stdout.Reset()
	stderr.Reset()
	other := strings.Repeat("ab", 16)
	if code := runTrace([]string{"-server", srv.URL, other}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown trace = %d, want 1: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "404") {
		t.Errorf("error does not surface the status: %s", stderr.String())
	}
}

// TestTraceArgValidation pins the usage errors: bad IDs, missing
// inputs and stray operands all exit 2 before any I/O.
func TestTraceArgValidation(t *testing.T) {
	for _, args := range [][]string{
		{"not-a-trace-id"},           // malformed ID
		{},                           // no ID and no -in
		{"-in", "x.jsonl", "a", "b"}, // stray operand
	} {
		var stdout, stderr bytes.Buffer
		if code := runTrace(args, &stdout, &stderr); code != 2 {
			t.Errorf("runTrace(%v) = %d, want 2: %s", args, code, stderr.String())
		}
	}
	// A selected ID absent from the file is a data error (1), not usage.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, fixtureSpans(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runTrace([]string{"-in", path, strings.Repeat("cd", 16)}, &stdout, &stderr); code != 1 {
		t.Errorf("missing trace in file = %d, want 1: %s", code, stderr.String())
	}
}
