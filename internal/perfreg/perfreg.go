// Package perfreg is the performance-regression harness: a curated
// suite of macro-benchmarks over the hot paths the optimisers pay for
// on every evaluation (evaluation sessions, the campaign engine, the
// async job pipeline, figure regeneration, the durable job store),
// measured with calibrated repetition and robust statistics and
// emitted as a versioned machine-readable report.
//
// Two checks guard the suite, each doing one job:
//
//   - Allocations are pinned in go test: TestScenarioAllocsPinned
//     (allocs_test.go) holds one row per Suite scenario with its
//     allocs/op and B/op pins, measured by the same fixed-repetition
//     allocation pass as the report. A change that moves an
//     allocation count edits its pin.
//   - Time is compared against the parent commit on the same machine:
//     `flexray-bench perf -baseline parent.json` gates ns/op with
//     noise-tolerant thresholds (default 15%, widened by the observed
//     sample spread) and prints allocs/op and B/op next to it.
//
// Timing uses the median of several calibrated samples with the
// median absolute deviation (MAD) as the noise estimate — a single
// preempted sample cannot shift the reported value the way it shifts
// a mean. Allocation counts come from a separate fixed-repetition
// pass that is identical in quick and full mode.
//
// `flexray-bench perf` is the harness CLI; `go test -bench
// PerfScenarios ./internal/perfreg` drives the same scenario ops, so
// the two can never measure different code.
package perfreg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Scenario is one macro-benchmark of the suite. Setup builds the
// operation under measurement (doing all input construction up
// front); the harness then times op() with calibrated repetition and
// measures its allocations in a separate fixed-repetition pass.
type Scenario struct {
	// Name identifies the scenario across reports ("eval/session");
	// comparisons match scenarios by name.
	Name string
	// Description is one line of human context carried into the
	// report.
	Description string
	// Unit names what one operation processes ("eval", "system",
	// "job", "record") — the denominator of every per-op metric and
	// of the derived throughput.
	Unit string
	// OpsPerCall is how many unit operations one op() performs (a
	// campaign pass over N systems has OpsPerCall N); 0 means 1.
	OpsPerCall int
	// AllocWarmup op() calls run before the allocation pass, so
	// caches and pools reach steady state; AllocOps calls are then
	// measured. Both are fixed — never scaled by quick mode — so
	// allocation counts are comparable between quick and full runs.
	// For scenarios whose op cycles through a candidate mix, both
	// should be multiples of the cycle length so the per-op count is
	// integral. Zero values default to 2 and 4.
	AllocWarmup int
	AllocOps    int
	// Serial marks a single-goroutine op: the allocation pass runs
	// it under GOMAXPROCS(1), making mallocs/op exact and
	// deterministic (the testing.AllocsPerRun approach).
	Serial bool
	// TimeTolPct is the time-regression threshold Compare applies to
	// this scenario; 0 selects DefaultTimeTolPct.
	TimeTolPct float64
	// Setup builds the operation. It returns the op, an optional
	// cleanup run after measurement, and an error that aborts the
	// suite.
	Setup func() (op func() error, cleanup func(), err error)
}

// DefaultTimeTolPct is the time-regression threshold of a scenario
// that sets none; see Scenario.TimeTolPct.
const DefaultTimeTolPct = 15.0

// normalized returns a copy with defaults applied.
func (s *Scenario) normalized() Scenario {
	n := *s
	if n.OpsPerCall <= 0 {
		n.OpsPerCall = 1
	}
	if n.AllocWarmup == 0 {
		n.AllocWarmup = 2
	}
	if n.AllocOps == 0 {
		n.AllocOps = 4
	}
	if n.TimeTolPct == 0 {
		n.TimeTolPct = DefaultTimeTolPct
	}
	return n
}

// MeasureConfig tunes the harness; see FullConfig and QuickConfig.
type MeasureConfig struct {
	// Samples is the number of timed samples per scenario; the
	// reported ns/op is their median.
	Samples int
	// TargetSampleTime calibrates the repetitions of one sample: reps
	// are chosen so a sample takes about this long (heavier ops
	// degrade to one rep per sample).
	TargetSampleTime time.Duration
	// WarmupTime is spent running the op before calibration.
	WarmupTime time.Duration
	// MaxReps caps the calibrated repetitions of one sample.
	MaxReps int
	// Quick marks the report as a reduced-sampling run.
	Quick bool
	// Logf, when set, receives per-scenario progress lines.
	Logf func(format string, args ...any)
}

// FullConfig returns the full-quality sampling configuration, for
// same-machine comparisons on a quiet host.
func FullConfig() MeasureConfig {
	return MeasureConfig{
		Samples:          9,
		TargetSampleTime: 250 * time.Millisecond,
		WarmupTime:       100 * time.Millisecond,
		MaxReps:          1 << 14,
	}
}

// QuickConfig returns the reduced-sampling configuration CI uses:
// timings are noisier (gate them with a loose -time-tol), but the
// fixed-repetition allocation pass is identical to a full run.
func QuickConfig() MeasureConfig {
	return MeasureConfig{
		Samples:          3,
		TargetSampleTime: 60 * time.Millisecond,
		WarmupTime:       20 * time.Millisecond,
		MaxReps:          1 << 12,
		Quick:            true,
	}
}

func (c MeasureConfig) withDefaults() MeasureConfig {
	if c.Samples <= 0 {
		c.Samples = FullConfig().Samples
	}
	if c.TargetSampleTime <= 0 {
		c.TargetSampleTime = FullConfig().TargetSampleTime
	}
	if c.MaxReps <= 0 {
		c.MaxReps = FullConfig().MaxReps
	}
	return c
}

// Measure runs one scenario: warm-up, rep calibration, cfg.Samples
// timed samples (median + MAD), then the fixed-repetition allocation
// pass.
func Measure(sc *Scenario, cfg MeasureConfig) (ScenarioResult, error) {
	s := sc.normalized()
	cfg = cfg.withDefaults()
	if s.Name == "" || s.Setup == nil {
		return ScenarioResult{}, errors.New("perfreg: scenario needs a name and a setup")
	}
	op, cleanup, err := s.Setup()
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("perfreg: %s: setup: %w", s.Name, err)
	}
	if cleanup != nil {
		defer cleanup()
	}

	// The scenario name rides on the profiler labels for the whole
	// measured window (ops and the goroutines they spawn inherit it),
	// so a -cpuprofile of a perf run — the PGO regeneration path —
	// attributes every sample to its scenario.
	var res ScenarioResult
	pprof.Do(context.Background(), pprof.Labels("scenario", s.Name), func(context.Context) {
		res, err = measure(s, cfg, op)
	})
	return res, err
}

// measure is the body of Measure: warm-up, calibration, timed samples,
// allocation pass.
func measure(s Scenario, cfg MeasureConfig, op func() error) (ScenarioResult, error) {
	// Warm-up: at least one op, then until the warm-up budget is
	// spent. This pays one-time costs (cold caches, pool fills, page
	// faults) outside the measured window.
	deadline := time.Now().Add(cfg.WarmupTime)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := op(); err != nil {
			return ScenarioResult{}, fmt.Errorf("perfreg: %s: %w", s.Name, err)
		}
	}

	// Calibration: time one op and pick reps so a sample lands near
	// the target time.
	t0 := time.Now()
	if err := op(); err != nil {
		return ScenarioResult{}, fmt.Errorf("perfreg: %s: %w", s.Name, err)
	}
	perOp := time.Since(t0)
	reps := 1
	if perOp > 0 {
		reps = int(cfg.TargetSampleTime / perOp)
	}
	reps = min(max(reps, 1), cfg.MaxReps)

	samples := make([]float64, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := op(); err != nil {
				return ScenarioResult{}, fmt.Errorf("perfreg: %s: %w", s.Name, err)
			}
		}
		d := time.Since(start)
		samples = append(samples, float64(d.Nanoseconds())/float64(reps*s.OpsPerCall))
	}
	med := median(samples)
	mad := medianAbsDev(samples, med)

	allocs, bytes, err := measureAllocs(op, s.AllocWarmup, s.AllocOps, s.OpsPerCall, s.Serial)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("perfreg: %s: %w", s.Name, err)
	}

	res := ScenarioResult{
		Name:        s.Name,
		Description: s.Description,
		Unit:        s.Unit,
		Samples:     cfg.Samples,
		Reps:        reps,
		NsPerOp:     med,
		NsMAD:       mad,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		TimeTolPct:  s.TimeTolPct,
	}
	if med > 0 {
		res.OpsPerSec = 1e9 / med
	}
	if cfg.Logf != nil {
		cfg.Logf("perf: %-18s %12.0f ns/%s (MAD %.0f, reps %d)  %d allocs/%s  %d B/%s",
			s.Name, res.NsPerOp, s.Unit, res.NsMAD, reps, res.AllocsPerOp, s.Unit, res.BytesPerOp, s.Unit)
	}
	return res, nil
}

// measureAllocs counts mallocs and allocated bytes per unit op over a
// fixed number of op calls, after a fixed warm-up. Serial ops are
// pinned to GOMAXPROCS(1) so the count is exact (runtime malloc
// statistics are only loosely synchronised across Ps).
func measureAllocs(op func() error, warmup, ops, opsPerCall int, serial bool) (allocs, bytes int64, err error) {
	if serial {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(ops * opsPerCall)
	allocs = int64(math.Round(float64(after.Mallocs-before.Mallocs) / n))
	bytes = int64(math.Round(float64(after.TotalAlloc-before.TotalAlloc) / n))
	return allocs, bytes, nil
}

// RunSuite measures every scenario and assembles the report (GitSHA is
// the caller's to fill in).
func RunSuite(scens []*Scenario, cfg MeasureConfig) (*Report, error) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC(),
		Quick:         cfg.Quick,
		Env:           CurrentEnvironment(),
	}
	seen := map[string]bool{}
	for _, sc := range scens {
		if seen[sc.Name] {
			return nil, fmt.Errorf("perfreg: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		res, err := Measure(sc, cfg)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

// Catalogue renders the suite as the human-readable table behind
// `flexray-bench perf -list`: one row per scenario with its unit, the
// time tolerance Compare applies (defaults resolved as Measure
// resolves them) and the allocation pass its pins are measured with —
// warm-up+measured op calls, and "serial" for a GOMAXPROCS(1) pass.
// The allocs/op and B/op pins themselves are the rows of
// TestScenarioAllocsPinned.
func Catalogue(scens []*Scenario) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tunit\ttime-tol\talloc-pass\tdescription")
	for _, sc := range scens {
		s := sc.normalized()
		pass := fmt.Sprintf("%d+%d", s.AllocWarmup, s.AllocOps)
		if s.Serial {
			pass += " serial"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%s\t%s\n", s.Name, s.Unit, s.TimeTolPct, pass, s.Description)
	}
	tw.Flush()
	fmt.Fprintln(&sb, "allocs/op and B/op pins: TestScenarioAllocsPinned, internal/perfreg/allocs_test.go")
	return sb.String()
}

// median returns the middle value of xs (mean of the middle two for
// even lengths). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianAbsDev returns the median absolute deviation around med — the
// robust spread estimate the comparison uses as its noise band.
func medianAbsDev(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return median(devs)
}
