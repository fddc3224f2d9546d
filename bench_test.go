// Benchmarks regenerating every figure of the paper's evaluation
// (Section 7). Each benchmark is one flexray-bench experiment; run
// them with
//
//	go test -bench=. -benchmem
//
// The figure data itself is printed by cmd/flexray-bench; these benches
// measure the cost of regenerating it and keep the experiments
// permanently exercised by CI.
package flexopt_test

import (
	"context"
	"fmt"
	"testing"

	flexopt "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfreg"
)

// BenchmarkFig1Trace regenerates the Fig. 1 protocol-mechanics trace
// (two bus cycles, eight messages, three nodes).
func BenchmarkFig1Trace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig1Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3STSegment regenerates the three static-segment
// configurations of Fig. 3 (paper: R3 = 16/12/10).
func BenchmarkFig3STSegment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.R3 != r.PaperR3 {
				b.Fatalf("%v: R3=%v, paper %v", r.Variant, r.R3, r.PaperR3)
			}
		}
	}
}

// BenchmarkFig4DYNSegment regenerates the three dynamic-segment
// configurations of Fig. 4 (paper: R2 = 37/35/21).
func BenchmarkFig4DYNSegment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.R2 != r.PaperR2 {
				b.Fatalf("%v: R2=%v, paper %v", r.Variant, r.R2, r.PaperR2)
			}
		}
	}
}

// BenchmarkFig7DYNSweep regenerates the response-time versus
// dynamic-segment-length characterisation (Fig. 7) at a reduced
// resolution.
func BenchmarkFig7DYNSweep(b *testing.B) {
	b.ReportAllocs()
	p := experiments.DefaultFig7Params()
	p.Points = 9
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Quality regenerates a reduced Fig. 9 left panel: cost
// deviation of BBC / OBC-CF / OBC-EE versus the SA baseline.
func BenchmarkFig9Quality(b *testing.B) {
	b.ReportAllocs()
	p := experiments.QuickFig9Params()
	p.AppsPerSet = 1
	p.NodeCounts = []int{2, 3}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig9Runtime times the four optimisers on one mid-size
// system (Fig. 9 right panel, single column).
func BenchmarkFig9Runtime(b *testing.B) {
	b.ReportAllocs()
	sys, err := flexopt.Generate(flexopt.DefaultGenParams(3, 77))
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.QuickFig9Params().Opts
	for _, alg := range []struct {
		name string
		run  func(*flexopt.System, flexopt.Options) (*flexopt.Result, error)
	}{
		{"BBC", flexopt.BBC},
		{"OBC-CF", flexopt.OBCCF},
		{"OBC-EE", flexopt.OBCEE},
		{"SA", flexopt.SA},
	} {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.run(sys, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCruiseController regenerates the in-text case study: BBC
// unschedulable, OBC-CF and OBC-EE schedulable with OBC-CF cheaper.
func BenchmarkCruiseController(b *testing.B) {
	b.ReportAllocs()
	opts := core.DefaultOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Cruise(opts)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Schedulable {
			b.Fatal("BBC unexpectedly schedulable")
		}
		if !rows[1].Schedulable || !rows[2].Schedulable {
			b.Fatal("OBC variants must configure the cruise controller")
		}
	}
}

// BenchmarkAblations runs the three design-choice ablations (FrameID
// order, latest-transmission rule, fill solver).
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations([]int64{1, 2}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d, want 6", len(rows))
		}
	}
}

// BenchmarkEvaluation measures a single schedule+analysis evaluation —
// the unit of work every optimiser spends its budget on.
func BenchmarkEvaluation(b *testing.B) {
	b.ReportAllocs()
	sys, err := flexopt.Generate(flexopt.DefaultGenParams(4, 123))
	if err != nil {
		b.Fatal(err)
	}
	res, err := flexopt.BBC(sys, flexopt.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := flexopt.BuildSchedule(sys, res.Config, flexopt.DefaultSchedOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation measures one hyper-period of discrete-event
// simulation of a configured four-node system.
func BenchmarkSimulation(b *testing.B) {
	b.ReportAllocs()
	sys, err := flexopt.Generate(flexopt.DefaultGenParams(4, 123))
	if err != nil {
		b.Fatal(err)
	}
	res, err := flexopt.BBC(sys, flexopt.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	table, _, err := flexopt.BuildSchedule(sys, res.Config, flexopt.DefaultSchedOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexopt.Simulate(sys, res.Config, table, flexopt.DefaultSimOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Population and campaignBenchOpts come from the perfreg
// scenario constructors: the scaling benchmarks and `flexray-bench
// perf` measure the same populations under the same budgets and
// cannot drift apart.
func fig7Population(n int) []flexopt.GenParams { return perfreg.Fig7Population(n) }

func campaignBenchOpts() flexopt.Options { return perfreg.CampaignTuning() }

// BenchmarkCampaignWorkers measures campaign throughput over the
// Fig. 7 population as the worker count grows; the records are
// identical at every setting, only the wall-clock changes. Expect
// >1.5x throughput at 4 workers versus 1 on a 4-core machine (on a
// single-core machine the curves coincide — there is nothing to
// parallelise onto).
func BenchmarkCampaignWorkers(b *testing.B) {
	b.ReportAllocs()
	specs := fig7Population(6)
	opts := campaignBenchOpts()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := flexopt.Campaign(context.Background(), specs, opts,
					flexopt.CampaignOptions{Workers: workers},
					func(flexopt.CampaignRecord) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPortfolio measures racing optimisers on one system over the
// shared caching engine, one goroutine per algorithm: the full
// portfolio on a Fig. 7 system under the campaign budgets; on the
// cruise controller under default options — what POST /v1/optimize
// serves for it — the full portfolio, and BBC and OBC-EE alone.
func BenchmarkPortfolio(b *testing.B) {
	b.ReportAllocs()
	fig7, err := flexopt.Generate(fig7Population(1)[0])
	if err != nil {
		b.Fatal(err)
	}
	cruise, err := flexopt.CruiseController()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *flexopt.System
		opts flexopt.Options
		algs []string
	}{
		{"fig7", fig7, campaignBenchOpts(), nil},
		{"cruise", cruise, flexopt.DefaultOptions(), nil},
		{"cruise-bbc", cruise, flexopt.DefaultOptions(), []string{"bbc"}},
		{"cruise-obc-ee", cruise, flexopt.DefaultOptions(), []string{"obc-ee"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := flexopt.Portfolio(context.Background(), c.sys, c.opts, c.algs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sessionBenchConfigs builds the candidate stream of the evaluation
// session benchmark through the shared perfreg constructor: a
// DYN-length sweep at fixed geometry interleaved with SA-style
// FrameID rotations — the two workloads the optimisers actually
// produce, identical to what `flexray-bench perf` measures.
func sessionBenchConfigs(b *testing.B, sys *flexopt.System) []*flexopt.Config {
	cfgs, err := perfreg.SessionConfigs(sys)
	if err != nil {
		b.Fatal(err)
	}
	return cfgs
}

// BenchmarkEvalSession compares the cost of one candidate evaluation on
// the fresh path (one schedule build plus one single-use analyzer, the
// pre-session pipeline) against one long-lived evaluation session.
// Run with -benchmem: the session's point is the allocs/op column.
func BenchmarkEvalSession(b *testing.B) {
	sys, err := perfreg.SessionSystem()
	if err != nil {
		b.Fatal(err)
	}
	cfgs := sessionBenchConfigs(b, sys)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := flexopt.BuildSchedule(sys, cfgs[i%len(cfgs)], flexopt.DefaultSchedOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		sess := flexopt.NewEvalSession(sys, flexopt.DefaultSchedOptions())
		for i := 0; i < b.N; i++ {
			if res, cost := sess.Eval(cfgs[i%len(cfgs)]); res == nil {
				b.Fatalf("config %d infeasible (cost %v)", i%len(cfgs), cost)
			}
		}
	})
}
