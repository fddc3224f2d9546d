package analysis_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/flexray/flexraytest"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/synth"
)

// recomputeChecker compares a cached Run with the full-recompute
// reference on the same analyzer and inputs, and counts the runs it
// checked. Callers pass one Analyzer per system for a whole sequence
// of configurations, so a window reused across Runs would show.
type recomputeChecker struct {
	t             testing.TB
	runs          int
	unconverged   int
	unschedulable int
}

func (c *recomputeChecker) check(name string, sys *model.System, an *analysis.Analyzer, cfg *flexray.Config) {
	c.t.Helper()
	table, err := sched.BuildTable(sys, cfg, sched.DefaultOptions())
	if err != nil {
		return
	}
	an.Reset(cfg, table)
	got := an.Run()
	want := an.RunFullRecomputeForTest()
	if !reflect.DeepEqual(got, want) {
		c.t.Fatalf("%s: cached Run differs from the full recompute\ncached: %+v\nfull:   %+v\nconfig: %+v",
			name, got, want, cfg)
	}
	c.runs++
	if !got.Converged {
		c.unconverged++
	}
	if !got.Schedulable {
		c.unschedulable++
	}
}

// shortFixpoint returns reusable analyzers whose jitter fixpoint stops
// after 1, 2 and 3 passes.
func shortFixpoint(sys *model.System) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for it := 1; it <= 3; it++ {
		opts := analysis.DefaultOptions()
		opts.MaxOuterIter = it
		out = append(out, analysis.NewReusable(sys, opts))
	}
	return out
}

// TestRunMatchesFullRecompute pins the per-Run window cache to the
// loop that recomputes every window on every pass: the cruise system
// under the configurations of all four optimisers, synthesised systems
// (2-5 nodes, several seeds) under their BBC configurations, and
// flexraytest.Perturb-ed variants of both, which include saturated
// windows. The perturbed variants also run on analyzers with a
// MaxOuterIter of 1-3, so fixpoints stopped midway (Converged false)
// are compared too. The whole Result must match bit for bit.
func TestRunMatchesFullRecompute(t *testing.T) {
	c := &recomputeChecker{t: t}
	copts := core.DefaultOptions()
	copts.DYNGridCap = 8

	sys := cruise.MustSystem()
	dyn := sys.App.Messages(int(model.DYN))
	an := analysis.NewReusable(sys, analysis.DefaultOptions())
	short := shortFixpoint(sys)
	rng := rand.New(rand.NewSource(1))
	for _, opt := range []func(*model.System, core.Options) (*core.Result, error){
		core.BBC, core.OBCCF, core.OBCEE, core.SA,
	} {
		best, err := opt(sys, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		c.check("cruise", sys, an, best.Config)
		for trial := 0; trial < 10; trial++ {
			cfg := flexraytest.Perturb(rng, best.Config, dyn)
			c.check("cruise perturbed", sys, an, cfg)
			c.check("cruise perturbed, short fixpoint", sys, short[trial%len(short)], cfg)
		}
	}

	for nodes := 2; nodes <= 5; nodes++ {
		for seed := int64(1); seed <= 4; seed++ {
			p := synth.DefaultParams(nodes, seed)
			p.DeadlineFactor = 2.0
			sys, err := synth.Generate(p)
			if err != nil {
				t.Fatalf("generate(%d,%d): %v", nodes, seed, err)
			}
			bbc, err := core.BBC(sys, copts)
			if err != nil {
				t.Fatalf("BBC(%d,%d): %v", nodes, seed, err)
			}
			dyn := sys.App.Messages(int(model.DYN))
			an := analysis.NewReusable(sys, analysis.DefaultOptions())
			short := shortFixpoint(sys)
			c.check("synth", sys, an, bbc.Config)
			rng := rand.New(rand.NewSource(seed*7919 + int64(nodes)))
			for trial := 0; trial < 12; trial++ {
				cfg := flexraytest.Perturb(rng, bbc.Config, dyn)
				c.check("synth perturbed", sys, an, cfg)
				c.check("synth perturbed, short fixpoint", sys, short[trial%len(short)], cfg)
			}
		}
	}
	t.Logf("%d runs, %d unschedulable, %d not converged", c.runs, c.unschedulable, c.unconverged)
	if c.unconverged == 0 || c.unschedulable == 0 {
		t.Fatalf("the inputs no longer reach unschedulable (%d) and non-converged (%d) runs", c.unschedulable, c.unconverged)
	}
}

// FuzzRunMatchesFullRecompute explores the window cache on the inputs
// of FuzzSimulationNeverExceedsAnalysis (internal/sim): a synthesised
// system (2-5 nodes, any seed) configured by one optimiser of the
// portfolio on a small budget and, for a non-zero perturb seed,
// perturbed. One reusable analyzer runs the optimised configuration and
// then the perturbed one, and a second analyzer stops the perturbed
// fixpoint after 1-3 passes; every Run must equal the full recompute.
// `go test` replays the seed corpus under testdata/fuzz; `go test
// -fuzz` explores further.
func FuzzRunMatchesFullRecompute(f *testing.F) {
	portfolio := []func(*model.System, core.Options) (*core.Result, error){
		core.BBC, core.OBCCF, core.OBCEE, core.SA,
	}
	f.Fuzz(func(t *testing.T, nodes uint8, seed int64, algo uint8, perturb int64) {
		p := synth.DefaultParams(2+int(nodes%4), seed)
		p.DeadlineFactor = 2.0
		sys, err := synth.Generate(p)
		if err != nil {
			t.Skipf("generate: %v", err)
		}
		copts := core.DefaultOptions()
		copts.DYNGridCap = 8
		copts.MaxEvaluations = 24
		copts.SAIterations = 24
		best, err := portfolio[int(algo)%len(portfolio)](sys, copts)
		if err != nil {
			t.Skipf("optimise: %v", err)
		}
		c := &recomputeChecker{t: t}
		an := analysis.NewReusable(sys, analysis.DefaultOptions())
		c.check("optimised", sys, an, best.Config)
		if perturb == 0 {
			return
		}
		rng := rand.New(rand.NewSource(perturb))
		cfg := flexraytest.Perturb(rng, best.Config, sys.App.Messages(int(model.DYN)))
		c.check("perturbed", sys, an, cfg)
		short := shortFixpoint(sys)
		c.check("perturbed, short fixpoint", sys, short[rng.Intn(len(short))], cfg)
	})
}
