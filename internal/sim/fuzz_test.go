package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/flexray/flexraytest"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/synth"
)

// fuzzPortfolio lists the four optimisers a fuzz input picks from.
var fuzzPortfolio = []func(*model.System, core.Options) (*core.Result, error){
	core.BBC, core.OBCCF, core.OBCEE, core.SA,
}

// FuzzSimulationNeverExceedsAnalysis is the paper's soundness claim as
// a fuzz target: on a synthesised system (2-5 nodes, any seed),
// configured by one optimiser of the portfolio on a small budget and
// optionally perturbed (FrameID swaps and drops, minislot and segment
// changes, policy flips), no simulated response may exceed its
// analysed worst-case bound, and the bus trace must keep the protocol
// invariants of checkTrace. Configurations that flexray.Config.Validate
// rejects are skipped: no service path analyses or simulates them.
// Responses that are not bounds under the analysis' own assumptions
// (unboundedActs) are exempt; the log line says what share of the
// event-triggered activities was checked. `go test` replays the seed
// corpus under testdata/fuzz; `go test -fuzz` explores further.
func FuzzSimulationNeverExceedsAnalysis(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes uint8, seed int64, algo uint8, perturb int64) {
		sys, cfg, an, ana, res := fuzzInput(t, nodes, seed, algo, perturb, true)
		checkTrace(t, sys, cfg, res.Trace)
		if !ana.Converged {
			return // the jitter fixpoint stopped early: no bounds to hold
		}
		unbounded := unboundedActs(sys, an, ana)
		for _, id := range aboveAnalysis(ana, res) {
			if !unbounded[id] {
				t.Errorf("%s simulated %v above analysed bound %v (config %v)",
					sys.App.Acts[id].Name, res.MaxResponse[id], ana.R[id], cfg)
			}
		}
		et, checked := 0, 0
		for i := range sys.App.Acts {
			if act := &sys.App.Acts[i]; !act.IsTT() {
				et++
				if !unbounded[act.ID] {
					checked++
				}
			}
		}
		t.Logf("checked %d of %d event-triggered activities against their bounds", checked, et)
	})
}

// TestSelfBacklogEscapesTheAnalysis pins two inputs the fuzz target
// found. In both, the bus cycle is longer than the 10 ms period of a
// DYN message, so its instances queue up without bound; the analysis
// counts one instance per message and returns responses beyond the
// period that the simulation exceeds. The first input's perturbed
// cycle also breaks the 16 ms protocol limit; the second is an OBC-EE
// result left unperturbed. Every exceeded response must lie in the set
// unboundedActs exempts, and the exemption must still be needed: once
// the analysis bounds queued instances, this test fails and the fuzz
// target can drop the period rule.
func TestSelfBacklogEscapesTheAnalysis(t *testing.T) {
	for _, in := range []struct {
		nodes   uint8
		seed    int64
		algo    uint8
		perturb int64
	}{{14, -73, 0, -74}, {94, -116, 10, 0}} {
		sys, _, an, ana, res := fuzzInput(t, in.nodes, in.seed, in.algo, in.perturb, false)
		above := aboveAnalysis(ana, res)
		if len(above) == 0 {
			t.Errorf("%+v: no simulated response above the analysis any more", in)
		}
		unbounded := unboundedActs(sys, an, ana)
		for _, id := range above {
			if !unbounded[id] {
				t.Errorf("%+v: %s simulated %v above analysed bound %v", in,
					sys.App.Acts[id].Name, res.MaxResponse[id], ana.R[id])
			}
		}
	}
}

// fuzzInput builds, configures, schedules, analyses and simulates one
// fuzz input, skipping inputs that yield no system, configuration or
// table, and with validOnly also configurations Config.Validate
// rejects. It returns the analyzer with the Result of its one Run.
func fuzzInput(t *testing.T, nodes uint8, seed int64, algo uint8, perturb int64, validOnly bool) (*model.System, *flexray.Config, *analysis.Analyzer, *analysis.Result, *Result) {
	t.Helper()
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
	best, err := fuzzPortfolio[int(algo)%len(fuzzPortfolio)](sys, copts)
	if err != nil {
		t.Skipf("optimise: %v", err)
	}
	cfg := best.Config
	if perturb != 0 {
		cfg = flexraytest.Perturb(rand.New(rand.NewSource(perturb)), cfg, sys.App.Messages(int(model.DYN)))
	}
	if validOnly {
		if err := cfg.Validate(copts.Params, sys); err != nil {
			t.Skipf("configuration rejected by Config.Validate: %v", err)
		}
	}
	schedOpts := sched.DefaultOptions()
	table, err := sched.BuildTable(sys, cfg, schedOpts)
	if err != nil {
		t.Skipf("no schedule table: %v", err)
	}
	an := analysis.New(sys, cfg, table, schedOpts.Analysis)
	ana := an.Run()
	opts := DefaultOptions()
	opts.Trace = true
	opts.TraceCap = 1 << 20
	s, err := New(sys, cfg, table, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sys, cfg, an, ana, res
}

// aboveAnalysis returns the activities whose simulated response
// exceeds the analysed one, in ID order.
func aboveAnalysis(ana *analysis.Result, res *Result) []model.ActID {
	var out []model.ActID
	for id, simR := range res.MaxResponse {
		if bound, ok := ana.R[id]; ok && simR > bound {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// unboundedActs returns the activities whose analysed response is not a
// worst-case bound. The Eq. (2)-(3) fixpoint, like the paper's
// analysis, bounds one instance at a time and assumes the previous
// instance of the same activity has completed: a response beyond the
// period means instances can queue behind each other, which the
// analysis does not count. (A response at the divergence cap, which
// only says the busy window diverged, lies beyond the period too.)
// Every response computed from such a value inherits the defect: graph
// successors through their jitter, and every activity whose window
// reads its jitter as interference (Analyzer.Interferers).
func unboundedActs(sys *model.System, an *analysis.Analyzer, ana *analysis.Result) map[model.ActID]bool {
	app := &sys.App
	out := map[model.ActID]bool{}
	for i := range app.Acts {
		a := &app.Acts[i]
		if a.IsET() && ana.R[a.ID] > app.Period(a.ID) {
			out[a.ID] = true
		}
	}
	inOut := func(id model.ActID) bool { return out[id] }
	for changed := true; changed; {
		changed = false
		for i := range app.Acts {
			y := &app.Acts[i]
			if out[y.ID] || !y.IsET() {
				continue
			}
			if slices.ContainsFunc(y.Preds, inOut) || slices.ContainsFunc(an.Interferers(y.ID), inOut) {
				out[y.ID] = true
				changed = true
			}
		}
	}
	return out
}
