package perfreg

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// testConfig keeps harness tests fast: minimal sampling, tiny warmup.
func testConfig() MeasureConfig {
	return MeasureConfig{
		Samples:          3,
		TargetSampleTime: time.Millisecond,
		WarmupTime:       time.Millisecond,
		MaxReps:          1 << 10,
	}
}

// spinScenario burns a little CPU without allocating.
func spinScenario(name string) *Scenario {
	return &Scenario{
		Name:   name,
		Unit:   "op",
		Serial: true,
		Setup: func() (func() error, func(), error) {
			sink := 0
			return func() error {
				for i := 0; i < 1000; i++ {
					sink += i * i
				}
				if sink == -1 {
					return errors.New("impossible")
				}
				return nil
			}, nil, nil
		},
	}
}

func TestMeasureSpin(t *testing.T) {
	res, err := Measure(spinScenario("test/spin"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NsPerOp <= 0 {
		t.Errorf("NsPerOp = %v, want > 0", res.NsPerOp)
	}
	if res.OpsPerSec <= 0 {
		t.Errorf("OpsPerSec = %v, want > 0", res.OpsPerSec)
	}
	if res.AllocsPerOp != 0 {
		t.Errorf("spin loop AllocsPerOp = %d, want 0", res.AllocsPerOp)
	}
	if res.Samples != 3 || res.Reps < 1 {
		t.Errorf("samples/reps = %d/%d", res.Samples, res.Reps)
	}
	// Default applied by normalization.
	if res.TimeTolPct != DefaultTimeTolPct {
		t.Errorf("time tolerance = %v, want %v", res.TimeTolPct, DefaultTimeTolPct)
	}
}

// TestMeasureAllocExact: the fixed-repetition allocation pass counts
// a deliberately allocating op exactly, under GOMAXPROCS(1).
func TestMeasureAllocExact(t *testing.T) {
	var keep []*[64]byte
	sc := &Scenario{
		Name:   "test/alloc",
		Unit:   "op",
		Serial: true,
		Setup: func() (func() error, func(), error) {
			return func() error {
				keep = append(keep[:0], new([64]byte), new([64]byte))
				return nil
			}, nil, nil
		},
	}
	res, err := Measure(sc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerOp != 2 {
		t.Errorf("AllocsPerOp = %d, want 2", res.AllocsPerOp)
	}
	if res.BytesPerOp < 128 {
		t.Errorf("BytesPerOp = %d, want >= 128", res.BytesPerOp)
	}
	_ = keep
}

func TestMeasureOpError(t *testing.T) {
	boom := errors.New("boom")
	sc := &Scenario{
		Name: "test/err",
		Unit: "op",
		Setup: func() (func() error, func(), error) {
			return func() error { return boom }, nil, nil
		},
	}
	if _, err := Measure(sc, testConfig()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestMeasureRunsCleanup(t *testing.T) {
	cleaned := false
	sc := spinScenario("test/cleanup")
	inner := sc.Setup
	sc.Setup = func() (func() error, func(), error) {
		op, _, err := inner()
		return op, func() { cleaned = true }, err
	}
	if _, err := Measure(sc, testConfig()); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("cleanup not run")
	}
}

func TestRunSuiteRejectsDuplicateNames(t *testing.T) {
	_, err := RunSuite([]*Scenario{spinScenario("dup"), spinScenario("dup")}, testConfig())
	if err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
}

func TestMedianAndMAD(t *testing.T) {
	xs := []float64{100, 102, 98, 500, 101} // one preempted outlier
	med := median(xs)
	if med != 101 {
		t.Errorf("median = %v, want 101 (outlier must not shift it)", med)
	}
	mad := medianAbsDev(xs, med)
	if mad != 1 {
		t.Errorf("MAD = %v, want 1", mad)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v, want 0", m)
	}
}

// TestReportRoundTrip runs a suite, writes and reads its report back,
// and gates the run against what it read: a report passes against
// itself, and a doctored time regression fails.
func TestReportRoundTrip(t *testing.T) {
	rep, err := RunSuite([]*Scenario{spinScenario("test/spin")}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep.GitSHA = "abc123"
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GitSHA != "abc123" || len(got.Scenarios) != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.Scenario("test/spin") == nil {
		t.Error("scenario lookup failed after round trip")
	}
	if got.Env.GoVersion == "" || got.Env.GOMAXPROCS <= 0 {
		t.Errorf("environment fingerprint incomplete: %+v", got.Env)
	}
	if cmp := Compare(got, rep, CompareOptions{}); !cmp.OK() {
		t.Errorf("report regressed against itself:\n%s", cmp.Table())
	}
	worse := *rep
	worse.Scenarios = append([]ScenarioResult(nil), rep.Scenarios...)
	worse.Scenarios[0].NsPerOp *= 10
	if cmp := Compare(got, &worse, CompareOptions{}); cmp.OK() {
		t.Error("a 10x time regression passed the gate")
	}
}

func TestReadReportRejectsSchemaDrift(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{SchemaVersion: SchemaVersion + 1, Env: CurrentEnvironment()}
	path := filepath.Join(dir, "future.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// BenchmarkPerfScenarios drives every scenario op of the suite under
// the standard benchmark runner. `flexray-bench perf` measures exactly
// these ops with its own calibrated-sampling harness; this benchmark
// keeps them exercised by `go test -bench` so the two surfaces cannot
// diverge.
func BenchmarkPerfScenarios(b *testing.B) {
	for _, sc := range Suite() {
		b.Run(sc.Name, func(b *testing.B) {
			op, cleanup, err := sc.Setup()
			if err != nil {
				b.Fatal(err)
			}
			if cleanup != nil {
				defer cleanup()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
