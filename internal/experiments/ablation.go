package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/sched"
	"repro/internal/synth"
)

// The ablations quantify the design choices the paper motivates
// qualitatively: unique criticality-ordered FrameIDs (Section 6.1),
// the per-frame versus per-node latest-transmission rule (Section 3),
// and the exact versus greedy "filled bus cycles" computation of the
// analysis (Section 5.1 / ref [14]).

// AblationRow compares one design choice on one system.
type AblationRow struct {
	Name     string
	Seed     int64
	Baseline float64 // cost with the paper's choice
	Variant  float64 // cost with the alternative
	// BaselineSched/VariantSched report feasibility under each
	// choice (what the FrameID guideline actually optimises).
	BaselineSched bool
	VariantSched  bool
	// BaselineTime/VariantTime are wall-clock times where the choice
	// affects effort (fill solver ablation).
	BaselineTime time.Duration
	VariantTime  time.Duration
}

// AblationFrameIDs compares the criticality-driven FrameID assignment
// (smaller CPm first, Fig. 5 line 1) against the pessimal reversed
// order on BBC-configured systems. The paper's guideline should never
// lose.
func AblationFrameIDs(seeds []int64, nodes int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, seed := range seeds {
		p := synth.DefaultParams(nodes, seed)
		p.DeadlineFactor = 2.0
		sys, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.DYNGridCap = 16
		base, err := core.BBC(sys, opts)
		if err != nil {
			return nil, err
		}
		// Reverse the FrameID order on the same bus geometry.
		cfg := base.Config.Clone()
		maxFid := cfg.MaxFrameID()
		for m, f := range cfg.FrameID {
			cfg.FrameID[m] = maxFid - f + 1
		}
		_, res, err := sched.Build(sys, cfg, opts.Sched)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "frameid-criticality", Seed: seed,
			Baseline: base.Cost, Variant: res.Cost,
			BaselineSched: base.Schedulable, VariantSched: res.Schedulable,
		})
	}
	return rows, nil
}

// AblationLatestTx compares the per-frame admission rule (the paper's
// Fig. 4 semantics) against the specification's per-node pLatestTx on
// identical configurations. Per-node is strictly more conservative: a
// node's largest frame throttles its small ones, so response times —
// and the cost — can only grow.
func AblationLatestTx(seeds []int64, nodes int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, seed := range seeds {
		p := synth.DefaultParams(nodes, seed)
		p.DeadlineFactor = 2.0
		sys, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.DYNGridCap = 16
		base, err := core.BBC(sys, opts)
		if err != nil {
			return nil, err
		}
		cfg := base.Config.Clone()
		cfg.Policy = flexray.LatestTxPerNode
		_, res, err := sched.Build(sys, cfg, opts.Sched)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "latest-tx-policy", Seed: seed,
			Baseline: base.Cost, Variant: res.Cost,
			BaselineSched: base.Schedulable, VariantSched: res.Schedulable,
		})
	}
	return rows, nil
}

// AblationFillSolver compares the polynomial greedy "filled cycles"
// computation against the exact branch-and-bound on identical
// configurations: the exact solver can only report equal or larger
// worst cases (it maximises the filling), at higher analysis cost.
func AblationFillSolver(seeds []int64, nodes int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, seed := range seeds {
		p := synth.DefaultParams(nodes, seed)
		p.DeadlineFactor = 2.0
		sys, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.DYNGridCap = 16
		base, err := core.BBC(sys, opts)
		if err != nil {
			return nil, err
		}

		run := func(exact bool) (float64, time.Duration, error) {
			o := sched.DefaultOptions()
			o.Analysis.ExactFill = exact
			start := time.Now()
			_, res, err := sched.Build(sys, base.Config, o)
			if err != nil {
				return 0, 0, err
			}
			return res.Cost, time.Since(start), nil
		}
		gc, gt, err := run(false)
		if err != nil {
			return nil, err
		}
		ec, et, err := run(true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "fill-solver", Seed: seed,
			Baseline: gc, Variant: ec,
			BaselineTime: gt, VariantTime: et,
		})
	}
	return rows, nil
}

// Ablations bundles all three studies for the bench tool.
func Ablations(seeds []int64, nodes int) ([]AblationRow, error) {
	var all []AblationRow
	for _, f := range []func([]int64, int) ([]AblationRow, error){
		AblationFrameIDs, AblationLatestTx, AblationFillSolver,
	} {
		rows, err := f(seeds, nodes)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}

// AblationReport renders rows as a printable table.
func AblationReport(rows []AblationRow) string {
	out := fmt.Sprintf("%-22s %-6s %-14s %-14s %-12s %-12s\n",
		"ablation", "seed", "paper choice", "alternative", "t(paper)", "t(alt)")
	for _, r := range rows {
		ts, tv := "-", "-"
		if r.BaselineTime > 0 {
			ts = r.BaselineTime.Round(time.Microsecond).String()
			tv = r.VariantTime.Round(time.Microsecond).String()
		}
		out += fmt.Sprintf("%-22s %-6d %-14.1f %-14.1f %-12s %-12s\n",
			r.Name, r.Seed, r.Baseline, r.Variant, ts, tv)
	}
	return out
}
