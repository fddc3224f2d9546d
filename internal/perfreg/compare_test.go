package perfreg

import (
	"strings"
	"testing"
)

// fixtureReport builds a baseline with one scenario carrying typical
// metrics and the default time tolerance.
func fixtureReport(mut func(*ScenarioResult)) *Report {
	sc := ScenarioResult{
		Name:        "eval/session",
		Unit:        "eval",
		Samples:     9,
		Reps:        100,
		NsPerOp:     100_000,
		NsMAD:       500,
		OpsPerSec:   10_000,
		AllocsPerOp: 16,
		BytesPerOp:  6000,
		TimeTolPct:  DefaultTimeTolPct,
	}
	if mut != nil {
		mut(&sc)
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		Env:           CurrentEnvironment(),
		Scenarios:     []ScenarioResult{sc},
	}
}

// TestCompareGate is the injected-regression fixture: an unchanged
// report passes the gate and a regressed time fails it. Allocation and
// byte regressions pass: Compare gates time only, and
// TestScenarioAllocsPinned owns the allocation counts.
func TestCompareGate(t *testing.T) {
	base := fixtureReport(nil)
	cases := []struct {
		name string
		mut  func(*ScenarioResult)
		ok   bool
	}{
		{name: "unchanged", mut: nil, ok: true},
		{name: "time within tolerance", ok: true,
			mut: func(s *ScenarioResult) { s.NsPerOp *= 1.10 }},
		{name: "time regression", ok: false,
			mut: func(s *ScenarioResult) { s.NsPerOp *= 1.30 }},
		{name: "time improvement", ok: true,
			mut: func(s *ScenarioResult) { s.NsPerOp *= 0.5 }},
		{name: "single alloc regression", ok: true,
			mut: func(s *ScenarioResult) { s.AllocsPerOp++ }},
		{name: "alloc improvement", ok: true,
			mut: func(s *ScenarioResult) { s.AllocsPerOp-- }},
		{name: "bytes regression", ok: true,
			mut: func(s *ScenarioResult) { s.BytesPerOp *= 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp := Compare(base, fixtureReport(tc.mut), CompareOptions{})
			if cmp.OK() != tc.ok {
				t.Fatalf("OK() = %v, want %v\n%s", cmp.OK(), tc.ok, cmp.Table())
			}
			// One gated row per scenario: its time.
			if len(cmp.Deltas) != 1 {
				t.Errorf("Compare gated %d rows for one scenario, want 1 (time only):\n%s", len(cmp.Deltas), cmp.Table())
			}
			if regs := cmp.Regressions(); !tc.ok && len(regs) != 1 {
				t.Fatalf("regressions = %+v, want exactly one", regs)
			}
		})
	}
}

func TestCompareMissingScenarioGates(t *testing.T) {
	base := fixtureReport(nil)
	cur := fixtureReport(nil)
	cur.Scenarios = nil
	cmp := Compare(base, cur, CompareOptions{})
	if cmp.OK() {
		t.Fatal("losing a baseline scenario must gate")
	}
	if len(cmp.Missing) != 1 || cmp.Missing[0] != "eval/session" {
		t.Fatalf("Missing = %v", cmp.Missing)
	}
}

func TestCompareAddedScenarioPasses(t *testing.T) {
	base := fixtureReport(nil)
	cur := fixtureReport(nil)
	cur.Scenarios = append(cur.Scenarios, ScenarioResult{Name: "new/coverage", NsPerOp: 1})
	cmp := Compare(base, cur, CompareOptions{})
	if !cmp.OK() {
		t.Fatalf("new coverage must not gate:\n%s", cmp.Table())
	}
	if len(cmp.Added) != 1 || cmp.Added[0] != "new/coverage" {
		t.Fatalf("Added = %v", cmp.Added)
	}
}

// TestCompareMADWidening: a scenario whose own sampling noise exceeds
// its percentage threshold must not gate on that noise.
func TestCompareMADWidening(t *testing.T) {
	base := fixtureReport(func(s *ScenarioResult) { s.NsMAD = 10_000 }) // 10% of median
	cur := fixtureReport(func(s *ScenarioResult) { s.NsPerOp *= 1.25 }) // above 15%, below 3×MAD
	if cmp := Compare(base, cur, CompareOptions{}); !cmp.OK() {
		t.Fatalf("delta inside the 3×MAD noise band gated:\n%s", cmp.Table())
	}
	// The same delta with quiet samples is a real regression.
	if cmp := Compare(fixtureReport(nil), cur, CompareOptions{}); cmp.OK() {
		t.Fatal("25% delta with quiet samples passed")
	}
}

func TestCompareTimeTolOverride(t *testing.T) {
	base := fixtureReport(nil)
	cur := fixtureReport(func(s *ScenarioResult) { s.NsPerOp *= 2.5 })
	// Shared-runner mode: a loose override lets a 2.5× time delta
	// through, but not a catastrophic 5× one.
	if cmp := Compare(base, cur, CompareOptions{TimeTolPct: 300}); !cmp.OK() {
		t.Fatalf("override did not widen the time gate:\n%s", cmp.Table())
	}
	cur.Scenarios[0].NsPerOp *= 2
	if cmp := Compare(base, cur, CompareOptions{TimeTolPct: 300}); cmp.OK() {
		t.Fatal("a 5x slowdown passed the 300% time override")
	}
}

func TestCompareTable(t *testing.T) {
	base := fixtureReport(nil)
	cur := fixtureReport(func(s *ScenarioResult) { s.NsPerOp *= 2 })
	cur.Scenarios = append(cur.Scenarios, ScenarioResult{Name: "new/one"})
	table := Compare(base, cur, CompareOptions{}).Table()
	for _, want := range []string{"eval/session", "ns/op", "REGRESSED", "new/one", "verdict"} {
		if !strings.Contains(table, want) {
			t.Errorf("table omits %q:\n%s", want, table)
		}
	}
}

// TestBenchstat pins the before/after summary format: per-metric
// sections with old/new columns, the ±MAD noise band on time, signed
// percentage deltas, and a geomean row.
func TestBenchstat(t *testing.T) {
	base := fixtureReport(nil)
	cur := fixtureReport(func(s *ScenarioResult) {
		s.NsPerOp = 80_000 // -20%
		s.NsMAD = 800      // ±1%
		s.BytesPerOp = 6600
	})
	out := Benchstat(base, cur)
	for _, want := range []string{
		"old ns/op", "new ns/op",
		"old allocs/op", "new allocs/op",
		"old B/op", "new B/op",
		"eval/session",
		"100000 ± 0%", "80000 ± 1%", // time with noise band
		"-20.00%", "+10.00%", // signed deltas
		"geomean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("benchstat omits %q:\n%s", want, out)
		}
	}
	// Unchanged allocation counts print a zero delta, not a blank.
	if !strings.Contains(out, "+0.00%") {
		t.Errorf("benchstat omits the zero delta row:\n%s", out)
	}
	// A scenario only the current report has contributes no row —
	// Benchstat summarises the intersection.
	cur.Scenarios = append(cur.Scenarios, ScenarioResult{Name: "new/one", NsPerOp: 1})
	if out := Benchstat(base, cur); strings.Contains(out, "new/one") {
		t.Errorf("benchstat includes a scenario the baseline lacks:\n%s", out)
	}
}

// TestCatalogue pins the -list rendering contract: one row per
// scenario with its time tolerance (default resolved) and allocation
// pass, and a closing line naming where the allocation pins live.
func TestCatalogue(t *testing.T) {
	out := Catalogue([]*Scenario{
		{Name: "a/serial", Unit: "op", Serial: true, Description: "serial one"},
		{Name: "b/wide", Unit: "op", TimeTolPct: 40, AllocWarmup: 1, AllocOps: 3, Description: "widened one"},
	})
	for _, want := range []string{
		"a/serial", "15%", "2+4 serial", // defaults: time 15%, 2 warm-up + 4 measured calls
		"b/wide", "40%", "1+3",
		"serial one", "widened one",
		"TestScenarioAllocsPinned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("catalogue omits %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 4 {
		t.Errorf("catalogue has %d lines, want 4 (header + 2 rows + pins line):\n%s", got, out)
	}
}

// TestSuiteShape pins the curated suite's contract: at least six
// scenarios, unique names and the documented hot paths all covered.
func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) < 6 {
		t.Fatalf("suite has %d scenarios, want >= 6", len(suite))
	}
	seen := map[string]bool{}
	for _, sc := range suite {
		if sc.Name == "" || sc.Unit == "" || sc.Setup == nil {
			t.Errorf("scenario %+v incomplete", sc.Name)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	for _, want := range []string{
		"eval/fresh", "eval/session", "sched/build-table", "campaign/serial", "campaign/parallel",
		"jobs/pipeline", "jobs/distributed-drain", "fig7/sweep", "fig9/quick",
		"store/replay", "store/compact",
	} {
		if !seen[want] {
			t.Errorf("suite lost scenario %q", want)
		}
	}
}

func TestSessionConfigsPinned(t *testing.T) {
	sys, err := SessionSystem()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := SessionConfigs(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != SessionConfigCount {
		t.Fatalf("mix length %d, want %d", len(cfgs), SessionConfigCount)
	}
}

// TestStoreScenarioOps exercises the store scenario setups end to
// end once — the ops must round-trip the synthetic history.
func TestStoreScenarioOps(t *testing.T) {
	for _, name := range []string{"store/replay", "store/compact"} {
		var sc *Scenario
		for _, s := range Suite() {
			if s.Name == name {
				sc = s
			}
		}
		if sc == nil {
			t.Fatalf("%s missing", name)
		}
		op, cleanup, err := sc.Setup()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := op(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cleanup != nil {
			cleanup()
		}
	}
}

// TestDistributedDrainScenarioOp runs the coordinator/worker scenario
// op once — the loopback fleet must drain a distributed job to done.
func TestDistributedDrainScenarioOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign over loopback HTTP")
	}
	var sc *Scenario
	for _, s := range Suite() {
		if s.Name == "jobs/distributed-drain" {
			sc = s
		}
	}
	if sc == nil {
		t.Fatal("jobs/distributed-drain missing")
	}
	op, cleanup, err := sc.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := op(); err != nil {
		t.Errorf("distributed drain: %v", err)
	}
	if cleanup != nil {
		cleanup()
	}
}
