package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// recordingHook is a pure EvalHook that evaluates every candidate with
// the from-scratch pipeline (one sched.Build, one fresh Analyzer) while
// recording a clone of each configuration — the exact candidate stream
// an optimiser produces. EvalBatch only serves the interface: no
// optimiser calls it.
type recordingHook struct {
	cfgs []*flexray.Config
}

func (h *recordingHook) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	h.cfgs = append(h.cfgs, cfg.Clone())
	return freshEval(sys, cfg, opts)
}

func (h *recordingHook) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		ress[i], costs[i] = h.Eval(sys, cfg, opts)
	}
	return ress, costs
}

// freshEval is the pre-session reference pipeline: schedule build plus
// one single-use Analyzer per candidate.
func freshEval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	_, res, err := sched.Build(sys, cfg, opts)
	if err != nil {
		return nil, infeasibleCost
	}
	return res, res.Cost
}

// sessionQuickOpts keeps the candidate streams sizeable but the test
// fast.
func sessionQuickOpts() Options {
	o := DefaultOptions()
	o.DYNGridCap = 16
	o.SlotCountCap = 2
	o.SlotLenSteps = 3
	o.MaxEvaluations = 160
	o.SAIterations = 80
	return o
}

// algorithms used by the session parity tests, with their entry points.
var sessionAlgs = []struct {
	name string
	run  func(*model.System, Options) (*Result, error)
}{
	{"BBC", BBC},
	{"OBC-CF", OBCCF},
	{"OBC-EE", OBCEE},
	{"SA", SA},
}

// TestSessionMatchesFreshAnalyzer is the determinism contract of the
// evaluation session: the candidate streams of all four algorithms are
// captured, shuffled, and replayed through ONE session; every single
// evaluation must equal the fresh-analyzer result bit for bit. The
// shuffle makes the session invalidate and rebind in an adversarial
// order (FrameID moves interleaved with geometry moves), which is
// exactly what the SA walk does to it.
func TestSessionMatchesFreshAnalyzer(t *testing.T) {
	sys := genSystem(t, 3, 11)
	opts := sessionQuickOpts()

	hook := &recordingHook{}
	hopts := opts
	hopts.Eval = hook
	for _, alg := range sessionAlgs {
		if _, err := alg.run(sys, hopts); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
	}
	cfgs := hook.cfgs
	if len(cfgs) < 50 {
		t.Fatalf("captured only %d candidate configurations, want >= 50", len(cfgs))
	}

	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })

	sess := NewSession(sys, opts.Sched)
	for i, cfg := range cfgs {
		sres, scost := sess.Eval(cfg)
		fres, fcost := freshEval(sys, cfg, opts.Sched)
		if scost != fcost {
			t.Fatalf("config %d (%v): session cost %v, fresh %v", i, cfg, scost, fcost)
		}
		if !reflect.DeepEqual(sres, fres) {
			t.Fatalf("config %d (%v): session result differs from fresh analyzer\nsession: %+v\nfresh:   %+v",
				i, cfg, sres, fres)
		}
	}
}

// TestSessionBatchMatchesFreshAnalyzer extends the determinism contract
// to the evaluator, separately for each algorithm's candidate stream:
// the stream is captured, shuffled, chopped into random-sized batches
// and replayed through the evaluator's eval with no hook installed (one
// session). A batch's results are compared only after the whole batch
// has been evaluated, so every Result must stay intact across later
// evaluations and equal the fresh-analyzer result bit for bit.
func TestSessionBatchMatchesFreshAnalyzer(t *testing.T) {
	sys := genSystem(t, 3, 11)
	opts := sessionQuickOpts()
	for _, alg := range sessionAlgs {
		t.Run(alg.name, func(t *testing.T) {
			hook := &recordingHook{}
			hopts := opts
			hopts.Eval = hook
			if _, err := alg.run(sys, hopts); err != nil {
				t.Fatal(err)
			}
			cfgs := hook.cfgs
			if len(cfgs) < 10 {
				t.Fatalf("captured only %d candidate configurations, want >= 10", len(cfgs))
			}
			rng := rand.New(rand.NewSource(7))
			rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })

			ev := newEvaluator(sys, opts, alg.name)
			for lo := 0; lo < len(cfgs); {
				hi := lo + 1 + rng.Intn(9)
				if hi > len(cfgs) {
					hi = len(cfgs)
				}
				batch := cfgs[lo:hi]
				ress, costs := evalAll(ev, batch)
				for i, cfg := range batch {
					fres, fcost := freshEval(sys, cfg, opts.Sched)
					if costs[i] != fcost {
						t.Fatalf("batch [%d:%d] pos %d: evaluator cost %v, fresh %v", lo, hi, i, costs[i], fcost)
					}
					if !reflect.DeepEqual(ress[i], fres) {
						t.Fatalf("batch [%d:%d] pos %d: evaluator result differs from fresh analyzer", lo, hi, i)
					}
				}
				lo = hi
			}
			if ev.evals != len(cfgs) {
				t.Errorf("evaluator counted %d evaluations of %d candidates", ev.evals, len(cfgs))
			}
		})
	}
}

// evalAll evaluates cfgs back to back through ev.eval and returns the
// results in order.
func evalAll(ev *evaluator, cfgs []*flexray.Config) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		ress[i], costs[i] = ev.eval(cfg)
	}
	return ress, costs
}

// TestSessionBatchDuplicates pins the evaluator against repeated
// candidates: duplicates rebuild the session's table and must each
// produce the full, independent result.
func TestSessionBatchDuplicates(t *testing.T) {
	sys := genSystem(t, 2, 5)
	opts := sessionQuickOpts()
	bbc, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []*flexray.Config
	for i := 0; i < 12; i++ {
		cfg := bbc.Config.Clone()
		cfg.NumMinislots += i % 3
		cfgs = append(cfgs, cfg)
	}
	ress, costs := evalAll(newEvaluator(sys, opts, "BBC"), cfgs)
	for i, cfg := range cfgs {
		fres, fcost := freshEval(sys, cfg, opts.Sched)
		if costs[i] != fcost || !reflect.DeepEqual(ress[i], fres) {
			t.Fatalf("position %d: evaluator (%v) differs from fresh (%v)", i, costs[i], fcost)
		}
	}
}

// TestSessionMatchesFreshOverMinislotSweep sweeps the minislot count,
// which changes the dynamic segment and so the table, through one
// session. The sweep revisits every value, so rebuilt tables meet
// geometries seen before. Every evaluation must match the fresh
// pipeline.
func TestSessionMatchesFreshOverMinislotSweep(t *testing.T) {
	const evals, deltas = 160, 64
	sys := genSystem(t, 2, 5)
	opts := sessionQuickOpts()
	bbc, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(sys, opts.Sched)
	for i := 0; i < evals; i++ {
		cfg := bbc.Config.Clone()
		cfg.NumMinislots += i % deltas
		sres, scost := sess.Eval(cfg)
		fres, fcost := freshEval(sys, cfg, opts.Sched)
		if scost != fcost || !reflect.DeepEqual(sres, fres) {
			t.Fatalf("eval %d: session (%v) differs from fresh (%v)", i, scost, fcost)
		}
	}
}

// TestSessionTableMemoBound sweeps more distinct slot geometries than
// the old 512-entry table memo held through one session. The session
// keeps a single schedule table, rebuilt in place for every candidate,
// so its table state stays bounded however many geometries it meets;
// evaluations past that point must still match the fresh pipeline.
func TestSessionTableMemoBound(t *testing.T) {
	const geometries = 512
	sys := genSystem(t, 2, 5)
	opts := sessionQuickOpts()
	bbc, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(sys, opts.Sched)
	var first *schedule.Table
	for i := 0; i < geometries+64; i++ {
		cfg := bbc.Config.Clone()
		cfg.NumMinislots += i % (geometries + 16)
		sres, scost := sess.Eval(cfg)
		if table, err := sess.plan.BuildTable(cfg); err == nil {
			if first == nil {
				first = table
			} else if table != first {
				t.Fatalf("iteration %d: session allocated a second schedule table", i)
			}
		}
		if i >= geometries {
			fres, fcost := freshEval(sys, cfg, opts.Sched)
			if scost != fcost || !reflect.DeepEqual(sres, fres) {
				t.Fatalf("iteration %d: session (%v) differs from fresh (%v)", i, scost, fcost)
			}
		}
	}
	if first == nil {
		t.Fatal("no geometry in the sweep produced a schedule table")
	}
}

// TestAlgorithmsSessionParity runs every optimiser once on the default
// (session-backed) path and once over the fresh-evaluation hook: the
// returned configuration, cost and evaluation count must be identical.
func TestAlgorithmsSessionParity(t *testing.T) {
	sys := genSystem(t, 3, 11)
	opts := sessionQuickOpts()
	for _, alg := range sessionAlgs {
		sessionRes, err := alg.run(sys, opts)
		if err != nil {
			t.Fatalf("%s session: %v", alg.name, err)
		}
		hopts := opts
		hopts.Eval = &recordingHook{}
		freshRes, err := alg.run(sys, hopts)
		if err != nil {
			t.Fatalf("%s fresh: %v", alg.name, err)
		}
		if sessionRes.Cost != freshRes.Cost {
			t.Errorf("%s: session cost %v, fresh %v", alg.name, sessionRes.Cost, freshRes.Cost)
		}
		if sessionRes.Schedulable != freshRes.Schedulable {
			t.Errorf("%s: session schedulable %v, fresh %v", alg.name, sessionRes.Schedulable, freshRes.Schedulable)
		}
		if sessionRes.Evaluations != freshRes.Evaluations {
			t.Errorf("%s: session evaluations %d, fresh %d", alg.name, sessionRes.Evaluations, freshRes.Evaluations)
		}
		if !reflect.DeepEqual(sessionRes.Config, freshRes.Config) {
			t.Errorf("%s: session config %v, fresh %v", alg.name, sessionRes.Config, freshRes.Config)
		}
		if !reflect.DeepEqual(sessionRes.Analysis, freshRes.Analysis) {
			t.Errorf("%s: session analysis differs from fresh", alg.name)
		}
	}
}
