package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Fig9Params scale the heuristic evaluation. The paper generated 25
// applications per node count and ran SA "for several hours" per
// system; the defaults keep a full regeneration in the minutes range
// while preserving every qualitative relation.
type Fig9Params struct {
	// NodeCounts are the platform sizes evaluated (the paper's
	// figure plots 2-5).
	NodeCounts []int
	// AppsPerSet is the number of random applications per node
	// count (the paper used 25).
	AppsPerSet int
	// Seed seeds the population.
	Seed int64
	// DeadlineFactor scales graph deadlines relative to periods. The
	// paper does not publish its deadline assignment; 2.0 places the
	// population at the schedulability edge, where some systems are
	// configurable and others are not — the regime the figure
	// explores.
	DeadlineFactor float64
	// Opts configures the optimisers; SAIterations is the knob that
	// trades baseline quality for runtime.
	Opts core.Options
	// Workers is the number of systems optimised concurrently by the
	// campaign engine; <= 0 selects GOMAXPROCS. The population sweep
	// is embarrassingly parallel, and per-system results are
	// independent of the worker count, so the figure is identical at
	// any setting — only the wall-clock changes.
	Workers int
}

// DefaultFig9Params returns a laptop-scale configuration: the paper's
// 25 applications per node count, with evaluation budgets that keep a
// full regeneration in the tens of minutes. bench_test.go and the unit
// tests use QuickFig9Params.
func DefaultFig9Params() Fig9Params {
	o := core.DefaultOptions()
	o.DYNGridCap = 48
	o.SlotCountCap = 3
	o.SlotLenSteps = 5
	o.MaxEvaluations = 1200
	o.SAIterations = 400
	// Deep saturation of unschedulable windows costs analysis time
	// without changing any ranking; a tight divergence cap keeps the
	// population sweep fast.
	o.Sched.Analysis.DivergenceFactor = 2
	return Fig9Params{
		NodeCounts:     []int{2, 3, 4, 5},
		AppsPerSet:     25,
		Seed:           1,
		DeadlineFactor: 2.0,
		Opts:           o,
	}
}

// QuickFig9Params shrink the population and budgets for smoke tests and
// benches while keeping every qualitative relation observable.
func QuickFig9Params() Fig9Params {
	p := DefaultFig9Params()
	p.AppsPerSet = 3
	p.Opts.DYNGridCap = 24
	p.Opts.SlotCountCap = 2
	p.Opts.SlotLenSteps = 3
	p.Opts.MaxEvaluations = 300
	p.Opts.SAIterations = 120
	return p
}

// Fig9Cell aggregates one (algorithm, node count) cell of the figure.
type Fig9Cell struct {
	Algorithm string
	Nodes     int
	// AvgDeviationPct is the average percentage deviation of the
	// cost function relative to the SA baseline (Fig. 9 left).
	AvgDeviationPct float64
	// Schedulable counts systems the algorithm configured feasibly.
	Schedulable int
	// Total is the number of systems in the set.
	Total int
	// TotalTime is the summed optimisation wall-clock (Fig. 9
	// right).
	TotalTime time.Duration
	// Evaluations is the summed number of schedule+analysis runs, a
	// hardware-independent cost measure reported alongside time.
	Evaluations int
}

// Fig9Result carries the full evaluation.
type Fig9Result struct {
	Cells []Fig9Cell
}

// Cell returns the cell for one algorithm and node count.
func (r *Fig9Result) Cell(alg string, nodes int) *Fig9Cell {
	for i := range r.Cells {
		if r.Cells[i].Algorithm == alg && r.Cells[i].Nodes == nodes {
			return &r.Cells[i]
		}
	}
	return nil
}

// Fig9 regenerates both panels of Fig. 9: for every node count it
// generates AppsPerSet systems, optimises each with BBC, OBC-CF, OBC-EE
// and SA, and aggregates cost-function deviations versus SA and
// optimisation times. The population is sharded across Workers by the
// campaign runner — SA warm-starts from the best OBC configuration of
// the same system (SAWarmFromOBC), emulating the paper's hours-long
// independent baseline runs with a bounded budget.
func Fig9(p Fig9Params) (*Fig9Result, error) {
	if len(p.NodeCounts) == 0 {
		p = DefaultFig9Params()
	}
	type key struct {
		alg   string
		nodes int
	}
	cells := map[key]*Fig9Cell{}
	cell := func(alg string, nodes int) *Fig9Cell {
		k := key{alg, nodes}
		c, ok := cells[k]
		if !ok {
			c = &Fig9Cell{Algorithm: alg, Nodes: nodes}
			cells[k] = c
		}
		return c
	}

	specs := campaign.PopulationSpecs(p.NodeCounts, p.AppsPerSet, p.Seed, p.DeadlineFactor)
	err := campaign.Run(context.Background(), specs, p.Opts,
		campaign.Options{Workers: p.Workers, SAWarmFromOBC: true},
		func(rec campaign.Record) error {
			if rec.Err != "" {
				return fmt.Errorf("fig9: n=%d seed=%d: %s", rec.Nodes, rec.Seed, rec.Err)
			}
			var sa *campaign.AlgoRun
			for i := range rec.Runs {
				r := &rec.Runs[i]
				if r.Err != "" {
					return fmt.Errorf("fig9: %s n=%d seed=%d: %s",
						r.Algorithm, rec.Nodes, rec.Seed, r.Err)
				}
				if r.Algorithm == "SA" {
					sa = r
				}
			}
			if sa == nil {
				return fmt.Errorf("fig9: n=%d seed=%d: no SA baseline", rec.Nodes, rec.Seed)
			}
			for _, run := range rec.Runs {
				c := cell(run.Algorithm, rec.Nodes)
				c.Total++
				c.TotalTime += run.Result.Elapsed
				c.Evaluations += run.Evaluations
				if run.Schedulable {
					c.Schedulable++
				}
				c.AvgDeviationPct += deviationPct(run.Cost, sa.Cost)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Finalise averages and a stable ordering.
	out := &Fig9Result{}
	for _, alg := range []string{"BBC", "OBC-CF", "OBC-EE", "SA"} {
		for _, nodes := range p.NodeCounts {
			c := cells[key{alg, nodes}]
			if c == nil {
				continue
			}
			if c.Total > 0 {
				c.AvgDeviationPct /= float64(c.Total)
			}
			out.Cells = append(out.Cells, *c)
		}
	}
	return out, nil
}

// deviationPct is the percentage deviation of a cost from the SA
// baseline cost, normalised by the baseline magnitude. Costs are
// schedulability degrees (Eq. 5); smaller is better, so positive
// deviation means "worse than SA".
func deviationPct(cost, base float64) float64 {
	den := math.Abs(base)
	if den < 1 {
		den = 1
	}
	return 100 * (cost - base) / den
}
