package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/perfreg"
)

// TestSubcommandsRecognized is the table-driven guard over the whole
// subcommand surface: every documented subcommand parses, unknown
// names are rejected with usage and exit code 2 — before anything
// executes — and flags interleave with subcommands in any position.
func TestSubcommandsRecognized(t *testing.T) {
	known := []string{"fig1", "fig3", "fig4", "fig7", "fig9",
		"campaign", "cruise", "ablation", "perf", "trace", "all"}
	for _, cmd := range known {
		t.Run(cmd, func(t *testing.T) {
			fs, _ := benchFlags()
			inv, err := splitArgs(fs, []string{cmd})
			if err != nil {
				t.Fatalf("splitArgs(%q): %v", cmd, err)
			}
			if len(inv.cmds) != 1 || inv.cmds[0] != cmd {
				t.Fatalf("splitArgs(%q) = %v", cmd, inv.cmds)
			}
			c := commandByName(inv.cmds[0])
			if c == nil {
				t.Fatalf("%q missing from the command table", cmd)
			}
			if c.desc == "" || c.run == nil {
				t.Fatalf("%q has no usage line or runner", cmd)
			}
		})
	}
	// Every entry of the command table is covered above — the test
	// table and the dispatch table cannot drift apart.
	if len(known) != len(commands) {
		t.Errorf("test covers %d subcommands, command table has %d", len(known), len(commands))
	}
}

func TestUnknownSubcommandUsageExit2(t *testing.T) {
	cases := [][]string{
		{"bogus"},
		{"fig1", "bogus"},          // typo after a valid name: nothing may run
		{"-workers", "2", "bogus"}, // after flag parsing
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", args, code)
			}
			if !strings.Contains(stderr.String(), "usage: flexray-bench") {
				t.Errorf("run(%v) did not print usage:\n%s", args, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%v) produced experiment output before rejecting:\n%s", args, stdout.String())
			}
		})
	}
}

func TestBadFlagValuesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"fig7", "-workers"},        // missing value
		{"fig7", "-workers", "two"}, // non-integer
		{"fig7", "-workers=two"},
		{"fig1", "-cpuprofile"}, // missing value
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", args, code)
			}
		})
	}
}

// benchFlags returns a fresh global flag set and its parse
// destination.
func benchFlags() (*flag.FlagSet, *benchOptions) {
	fs := flag.NewFlagSet("flexray-bench", flag.ContinueOnError)
	return fs, registerBenchFlags(fs)
}

func TestSplitArgsInterleavedFlags(t *testing.T) {
	fs, o := benchFlags()
	inv, err := splitArgs(fs, []string{"fig7", "-workers=3", "fig9", "-full"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(inv.cmds, ","); got != "fig7,fig9" {
		t.Errorf("cmds = %q", got)
	}
	if o.workers != 3 || !o.full {
		t.Errorf("flags not applied: %+v", o)
	}
}

// TestSplitArgsPerfOwnsTail: everything after "perf" belongs to the
// perf flag set, not the subcommand scanner.
func TestSplitArgsPerfOwnsTail(t *testing.T) {
	fs, _ := benchFlags()
	inv, err := splitArgs(fs, []string{"perf", "-quick", "-baseline", "parent.json"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.cmds) != 1 || inv.cmds[0] != "perf" {
		t.Fatalf("cmds = %v", inv.cmds)
	}
	if got := strings.Join(inv.perfArgs, " "); got != "-quick -baseline parent.json" {
		t.Errorf("perfArgs = %q", got)
	}
}

// TestSplitArgsTraceOwnsTail: the trace renderer owns everything after
// "trace" — its flags and the trace-ID operand are not experiment
// names.
func TestSplitArgsTraceOwnsTail(t *testing.T) {
	fs, _ := benchFlags()
	inv, err := splitArgs(fs, []string{"trace", "-in", "t.jsonl", "4bf92f3577b34da6a3ce929d0e0e4736"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.cmds) != 1 || inv.cmds[0] != "trace" {
		t.Fatalf("cmds = %v", inv.cmds)
	}
	if got := strings.Join(inv.traceArgs, " "); got != "-in t.jsonl 4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("traceArgs = %q", got)
	}
}

// TestSubmitDistribute: a flag after the subcommand reaches the flag
// set, so `campaign -submit URL -distribute` posts a distributed
// campaign spec.
func TestSubmitDistribute(t *testing.T) {
	var spec map[string]any
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-1","kind":"campaign","status":"done"}`)
	})
	mux.HandleFunc("GET /v1/jobs/j-1/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"campaign", "-submit", srv.URL, "-distribute"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d: %s", code, stderr.String())
	}
	if spec["kind"] != "campaign" || spec["distribute"] != true {
		t.Errorf("posted spec %v, want a campaign with \"distribute\": true", spec)
	}
	if !strings.Contains(stderr.String(), "campaign: submitted job j-1") {
		t.Errorf("submit progress did not reach run's stderr:\n%s", stderr.String())
	}
}

// TestExperimentsWriteToRunWriters: an experiment prints to the stdout
// run receives, so a check on that writer sees everything it printed.
func TestExperimentsWriteToRunWriters(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig3", "fig4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d: %s", code, stderr.String())
	}
	for _, want := range []string{"=== Fig. 3", "=== Fig. 4", "paper R3", "analysed R2"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr not empty: %s", stderr.String())
	}
}

// fixtureSuite is a fast suite for the gate-path tests: op() spins
// for a few microseconds, then sleeps for delay.
func fixtureSuite(delay time.Duration) func() []*perfreg.Scenario {
	return func() []*perfreg.Scenario {
		return []*perfreg.Scenario{{
			Name:   "fixture/op",
			Unit:   "op",
			Serial: true,
			// Same-machine timing of a microsecond op still jitters;
			// the injected regression is a sleep three orders of
			// magnitude longer.
			TimeTolPct: 900,
			Setup: func() (func() error, func(), error) {
				sink := 0
				return func() error {
					for i := 0; i < 2000; i++ {
						sink += i
					}
					_ = sink
					time.Sleep(delay)
					return nil
				}, nil, nil
			},
		}}
	}
}

// TestPerfBaselineGate drives the acceptance fixture end to end
// through runPerf: an unchanged tree gates clean against its own
// report, and an injected time regression exits non-zero.
func TestPerfBaselineGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "parent.json")
	defer func(orig func() []*perfreg.Scenario) { perfSuite = orig }(perfSuite)

	perfSuite = fixtureSuite(0)
	var stdout, stderr bytes.Buffer
	if code := runPerf([]string{"-quick", "-out", baseline}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run = %d: %s", code, stderr.String())
	}

	// Unchanged: the same suite against its own report passes.
	out := filepath.Join(dir, "current.json")
	stdout.Reset()
	stderr.Reset()
	if code := runPerf([]string{"-quick", "-out", out, "-baseline", baseline}, &stdout, &stderr); code != 0 {
		t.Fatalf("unchanged gate = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "fixture/op") {
		t.Errorf("diff table missing scenario:\n%s", stdout.String())
	}

	// Injected regression: a 5 ms sleep per op breaches the time gate.
	perfSuite = fixtureSuite(5 * time.Millisecond)
	stdout.Reset()
	stderr.Reset()
	if code := runPerf([]string{"-quick", "-out", out, "-baseline", baseline}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed gate = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") {
		t.Errorf("diff table does not mark the regression:\n%s", stdout.String())
	}
	// The report of the failing run is still written — CI uploads it
	// as the artifact of the red build.
	if _, err := perfreg.ReadReport(out); err != nil {
		t.Errorf("failing run left no report: %v", err)
	}
}

// TestPerfWithoutOutWritesNothing: a run without -out, gated or not,
// leaves no file in the current directory.
func TestPerfWithoutOutWritesNothing(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(t.TempDir(), "parent.json")
	defer func(orig func() []*perfreg.Scenario) { perfSuite = orig }(perfSuite)
	perfSuite = fixtureSuite(0)
	var stdout, stderr bytes.Buffer
	if code := runPerf([]string{"-quick", "-out", baseline}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run = %d: %s", code, stderr.String())
	}
	t.Chdir(dir)
	for _, args := range [][]string{{"-quick"}, {"-quick", "-baseline", baseline}} {
		if code := runPerf(args, &stdout, &stderr); code != 0 {
			t.Fatalf("runPerf(%v) = %d: %s", args, code, stderr.String())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("perf without -out left %s in the current directory", e.Name())
	}
}

// TestPerfList drives `perf -list` against the real curated suite: one
// catalogue row per scenario carrying the unit, the time tolerance and
// the allocation pass, a closing line naming the allocation pins, and
// no measurement. The expectations are table-driven from the suite
// itself so a scenario added or retuned without showing up here fails.
func TestPerfList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runPerf([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("perf -list = %d: %s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	suite := perfreg.Suite()
	if got, want := len(lines), len(suite)+2; got != want {
		t.Fatalf("perf -list printed %d lines, want %d (header + %d scenarios + pins line):\n%s",
			got, want, len(suite), out)
	}
	for _, col := range []string{"scenario", "unit", "time-tol", "alloc-pass", "description"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header misses %q: %q", col, lines[0])
		}
	}
	for i, sc := range suite {
		row := lines[i+1]
		timeTol := sc.TimeTolPct
		if timeTol == 0 {
			timeTol = perfreg.DefaultTimeTolPct
		}
		want := []string{sc.Name, sc.Unit, fmt.Sprintf("%.0f%%", timeTol)}
		if sc.Serial {
			want = append(want, "serial")
		}
		for _, w := range want {
			if !strings.Contains(row, w) {
				t.Errorf("row %d misses %q: %q", i+1, w, row)
			}
		}
	}
	if !strings.Contains(lines[len(lines)-1], "TestScenarioAllocsPinned") {
		t.Errorf("last line does not name the allocation pins: %q", lines[len(lines)-1])
	}
	// -list never measures, so it cannot have produced a report.
	if strings.Contains(stderr.String(), "report") {
		t.Errorf("perf -list wrote a report: %s", stderr.String())
	}
}

func TestPerfRejectsUnknownArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runPerf([]string{"extra"}, &stdout, &stderr); code != 2 {
		t.Fatalf("runPerf(extra) = %d, want 2", code)
	}
	if code := runPerf([]string{"-notaflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("runPerf(-notaflag) = %d, want 2", code)
	}
}

// TestPerfFlagsRegistered pins the perf flag surface the docs and CI
// depend on.
func TestPerfFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	registerPerfFlags(fs)
	for _, name := range []string{"quick", "list", "out", "baseline", "time-tol"} {
		if fs.Lookup(name) == nil {
			t.Errorf("perf flag -%s not registered", name)
		}
	}
}

// TestTraceFlagsRegistered pins the trace flag surface likewise.
func TestTraceFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	registerTraceFlags(fs)
	for _, name := range []string{"server", "in", "top"} {
		if fs.Lookup(name) == nil {
			t.Errorf("trace flag -%s not registered", name)
		}
	}
}
