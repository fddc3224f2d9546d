package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/experiments"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/synth"
)

// streamHook evaluates every candidate through one session and digests
// the (fingerprint, cost) sequence it is handed; it counts EvalBatch
// calls, which no optimiser makes.
type streamHook struct {
	sess    *core.Session
	h       hash.Hash
	batches int
}

func (s *streamHook) Eval(_ *model.System, cfg *flexray.Config, _ sched.Options) (*analysis.Result, float64) {
	res, cost := s.sess.Eval(cfg)
	s.add(cfg, cost)
	return res, cost
}

func (s *streamHook) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	s.batches++
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		ress[i], costs[i] = s.Eval(sys, cfg, opts)
	}
	return ress, costs
}

func (s *streamHook) add(cfg *flexray.Config, cost float64) {
	fp := cfg.Fingerprint()
	s.h.Write(fp[:])
	s.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(cost)))
}

// TestCandidateStreamPinned pins the candidate stream of the three
// sweep optimisers — every (configuration fingerprint, cost) pair in
// evaluation order, then the returned configuration, cost and
// evaluation count — on cruise (default options, then budgets of 40
// and 66 evaluations, which cut BBC's sweep and OBC-CF's support set)
// and on the quick Fig. 9 population (seeds 1-5, 2-5 nodes,
// QuickFig9Params options).
// The digests were recorded from the batched sweeps that evaluated a
// fresh clone per candidate, so the one-scratch-configuration sweeps
// must hand the hook exactly the same stream, one candidate at a time.
// budget/OBC-CF alone was re-recorded when the initial support set
// started to respect the budget: at budget 66 it now stops after 66
// evaluations instead of 69, with the same cost.
func TestCandidateStreamPinned(t *testing.T) {
	want := map[string]string{
		"cruise/BBC":    "0f0a4560cb7d75aaa49f8f1c85fdad815b258cfe11c3b7ec275487cd4a81ab51",
		"cruise/OBC-CF": "a649eb28b347db3d007f043126c500735203e2a2f2464d5578f6c695f790b914",
		"cruise/OBC-EE": "45bf22f5a4b1b73e90dda5f4ff61392df4a8702357658311e298e0fea3ae8376",
		"budget/BBC":    "064fcb9f3946d6db2b2bd6e6b27134fb3dfdd5625e10032167c29e803e738deb",
		"budget/OBC-CF": "2a41cb7d8edb74d9a1596106229424c42278fc90ab0fa532cc2f001d793339d7",
		"budget/OBC-EE": "2ad5043fb431b1aa42db4186e73d45cf21447b393e556a4561194e2670c9272f",
		"quick/BBC":     "4f1501b670e27816e830c068a7e1b2788f1f002949ac65435d5862c41ba11d96",
		"quick/OBC-CF":  "b54e7edc4ab352ba38090861122274a397401e7d58f000e72b767cf13b09c768",
		"quick/OBC-EE":  "7212849438c6043fc7e8c04f5cf13741faa74a77ca7d2f0de43db9332f7c53dd",
	}
	type sysOpts struct {
		sys  *model.System
		opts core.Options
	}
	cr := cruise.MustSystem()
	sets := map[string][]sysOpts{"cruise": {{cr, core.DefaultOptions()}}}
	for _, budget := range []int{40, 66} {
		opts := core.DefaultOptions()
		opts.MaxEvaluations = budget
		sets["budget"] = append(sets["budget"], sysOpts{cr, opts})
	}
	qp := experiments.QuickFig9Params()
	for seed := int64(1); seed <= 5; seed++ {
		for _, sp := range campaign.PopulationSpecs(qp.NodeCounts, 1, seed, qp.DeadlineFactor) {
			sys, err := synth.Generate(sp)
			if err != nil {
				t.Fatal(err)
			}
			sets["quick"] = append(sets["quick"], sysOpts{sys, qp.Opts})
		}
	}
	algs := []struct {
		name string
		run  func(*model.System, core.Options) (*core.Result, error)
	}{
		{"BBC", core.BBC},
		{"OBC-CF", core.OBCCF},
		{"OBC-EE", core.OBCEE},
	}
	for _, set := range []string{"cruise", "budget", "quick"} {
		for _, alg := range algs {
			name := set + "/" + alg.name
			h := sha256.New()
			for _, so := range sets[set] {
				hook := &streamHook{sess: core.NewSession(so.sys, so.opts.Sched), h: h}
				opts := so.opts
				opts.Eval = hook
				res, err := alg.run(so.sys, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, so.sys.Name, err)
				}
				if hook.batches != 0 {
					t.Errorf("%s on %s: %d EvalBatch calls, want none", name, so.sys.Name, hook.batches)
				}
				hook.add(res.Config, res.Cost)
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(res.Evaluations)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("%s: stream digest %s, pinned %s", name, got, want[name])
			}
		}
	}
}
