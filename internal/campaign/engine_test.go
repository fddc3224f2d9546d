package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/synth"
)

// quickOpts are reduced optimiser budgets that keep the tests fast
// while exercising every code path.
func quickOpts() core.Options {
	o := core.DefaultOptions()
	o.DYNGridCap = 24
	o.SlotCountCap = 2
	o.SlotLenSteps = 3
	o.MaxEvaluations = 300
	o.SAIterations = 120
	return o
}

func testSystem(t *testing.T, nodes int, seed int64) *model.System {
	t.Helper()
	sp := synth.DefaultParams(nodes, seed)
	sp.DeadlineFactor = 2.0
	sys, err := synth.Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// requireSameResult asserts that two optimiser results are
// bit-identical in everything but wall-clock time.
func requireSameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if got.Schedulable != want.Schedulable {
		t.Errorf("%s: schedulable %v, want %v", label, got.Schedulable, want.Schedulable)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
	if !reflect.DeepEqual(got.Config, want.Config) {
		t.Errorf("%s: config %v, want %v", label, got.Config, want.Config)
	}
}

// TestEngineMatchesSerial is the engine determinism contract: for every
// optimiser, evaluation through the engine — at one worker and at many
// — returns exactly the serial result, including the evaluation count.
func TestEngineMatchesSerial(t *testing.T) {
	sys := testSystem(t, 3, 7)
	opts := quickOpts()
	for _, alg := range Algorithms {
		serial, err := runAlgorithm(context.Background(), alg, sys, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		for _, workers := range []int{1, 4} {
			eng := NewEngine(context.Background(), EngineOptions{Workers: workers})
			res, err := runAlgorithm(context.Background(), alg, sys, eng.Hook(opts))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, workers, err)
			}
			requireSameResult(t, alg, serial, res)
		}
	}
}

// TestEngineCache verifies memoisation: re-evaluating an identical
// configuration is answered from the cache without a second build.
func TestEngineCache(t *testing.T) {
	sys := testSystem(t, 2, 3)
	opts := quickOpts()
	bbc, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(context.Background(), EngineOptions{Workers: 2})
	res1, cost1 := eng.Eval(sys, bbc.Config, opts.Sched)
	res2, cost2 := eng.Eval(sys, bbc.Config.Clone(), opts.Sched)
	if res1 != res2 || cost1 != cost2 {
		t.Errorf("cache returned a different result: (%p,%v) vs (%p,%v)", res1, cost1, res2, cost2)
	}
	st := eng.Stats()
	if st.Evaluations != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 evaluation, 1 miss, 1 hit", st)
	}

	// A semantically different configuration must not hit.
	other := bbc.Config.Clone()
	other.NumMinislots++
	eng.Eval(sys, other, opts.Sched)
	if st := eng.Stats(); st.Evaluations != 2 {
		t.Errorf("distinct config reused a cache entry: %+v", st)
	}
}

// TestEngineCacheBound verifies the cache never exceeds its capacity.
func TestEngineCacheBound(t *testing.T) {
	sys := testSystem(t, 2, 3)
	opts := quickOpts()
	bbc, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(context.Background(), 1, 4)
	for i := 0; i < 16; i++ {
		cfg := bbc.Config.Clone()
		cfg.NumMinislots += i
		eng.Eval(sys, cfg, opts.Sched)
	}
	eng.mu.Lock()
	n, m := eng.lru.Len(), len(eng.entries)
	eng.mu.Unlock()
	if n > 4 || m > 4 {
		t.Errorf("cache grew to %d list / %d map entries, cap 4", n, m)
	}
	// The most recent entry must still hit.
	cfg := bbc.Config.Clone()
	cfg.NumMinislots += 15
	before := eng.Stats().Evaluations
	eng.Eval(sys, cfg, opts.Sched)
	if after := eng.Stats().Evaluations; after != before {
		t.Errorf("most recent entry was evicted (evals %d -> %d)", before, after)
	}
}

// TestEngineCancellation: a cancelled engine answers immediately with
// an infeasible cost and never builds a schedule — for single
// evaluations and for every candidate of a batch fanned across workers.
func TestEngineCancellation(t *testing.T) {
	sys := testSystem(t, 2, 3)
	opts := quickOpts()
	bbc, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(ctx, EngineOptions{Workers: 1})
	res, cost := eng.Eval(sys, bbc.Config, opts.Sched)
	if res != nil || cost != infeasibleCost {
		t.Errorf("cancelled eval = (%v, %v), want (nil, infeasible)", res, cost)
	}
	if st := eng.Stats(); st.Evaluations != 0 {
		t.Errorf("cancelled engine still evaluated: %+v", st)
	}
	if !eng.Cancelled() {
		t.Error("Cancelled() = false after cancel")
	}

	// Four workers: the batch takes the per-candidate goroutine fan-out.
	eng = NewEngine(ctx, EngineOptions{Workers: 4})
	cfgs := make([]*flexray.Config, 8)
	for i := range cfgs {
		cfgs[i] = bbc.Config.Clone()
		cfgs[i].NumMinislots += i
	}
	ress, costs := eng.EvalBatch(sys, cfgs, opts.Sched)
	if len(ress) != len(cfgs) || len(costs) != len(cfgs) {
		t.Fatalf("cancelled batch returned %d results, %d costs, want %d", len(ress), len(costs), len(cfgs))
	}
	for i := range cfgs {
		if ress[i] != nil || costs[i] != infeasibleCost {
			t.Errorf("cancelled batch pos %d = (%v, %v), want (nil, infeasible)", i, ress[i], costs[i])
		}
	}
	if st := eng.Stats(); st.Evaluations != 0 {
		t.Errorf("cancelled engine still evaluated a batch: %+v", st)
	}
}

// TestPortfolioMatchesSerial: racing the portfolio concurrently yields,
// per algorithm, exactly the serial results, and picks the cheapest as
// the winner.
func TestPortfolioMatchesSerial(t *testing.T) {
	sys := testSystem(t, 3, 7)
	opts := quickOpts()

	serial := map[string]*core.Result{}
	for _, alg := range Algorithms {
		res, err := runAlgorithm(context.Background(), alg, sys, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		serial[alg] = res
	}

	for _, workers := range []int{1, 4} {
		pf, err := Portfolio(context.Background(), sys, opts, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pf.Runs) != len(Algorithms) {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(pf.Runs), len(Algorithms))
		}
		wantBest := serial["BBC"]
		for _, alg := range Algorithms {
			if serial[alg].Cost < wantBest.Cost {
				wantBest = serial[alg]
			}
		}
		if pf.Best.Cost != wantBest.Cost {
			t.Errorf("workers=%d: best cost %v, want %v", workers, pf.Best.Cost, wantBest.Cost)
		}
		for _, run := range pf.Runs {
			requireSameResult(t, run.Algorithm, serial[run.Algorithm], run.Result)
		}
	}
}

// TestPortfolioCancelled: a cancelled context surfaces as the
// portfolio's error.
func TestPortfolioCancelled(t *testing.T) {
	sys := testSystem(t, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Portfolio(ctx, sys, quickOpts(), EngineOptions{Workers: 2}); err == nil {
		t.Fatal("cancelled portfolio returned nil error")
	}
}

// TestPortfolioUnknownAlgorithm rejects bad algorithm names up front.
func TestPortfolioUnknownAlgorithm(t *testing.T) {
	sys := testSystem(t, 2, 3)
	if _, err := Portfolio(context.Background(), sys, quickOpts(), EngineOptions{}, "genetic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestEngineShardedCache: memoisation holds under a batch fanned across
// 8 workers — every distinct configuration is evaluated exactly once.
func TestEngineShardedCache(t *testing.T) {
	sys := testSystem(t, 2, 3)
	opts := quickOpts()
	bbc, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(context.Background(), EngineOptions{Workers: 8})

	const distinct = 32
	cfgs := make([]*flexray.Config, 0, 2*distinct)
	for round := 0; round < 2; round++ {
		for i := 0; i < distinct; i++ {
			cfg := bbc.Config.Clone()
			cfg.NumMinislots += i
			cfgs = append(cfgs, cfg)
		}
	}
	ress, costs := eng.EvalBatch(sys, cfgs, opts.Sched)
	for i := 0; i < distinct; i++ {
		if ress[i] != ress[i+distinct] || costs[i] != costs[i+distinct] {
			t.Errorf("config %d: second round not answered from cache", i)
		}
	}
	st := eng.Stats()
	if st.Evaluations != distinct {
		t.Errorf("evaluations = %d, want %d (one per distinct config)", st.Evaluations, distinct)
	}
	if st.CacheHits != distinct || st.CacheMisses != distinct {
		t.Errorf("hits/misses = %d/%d, want %d/%d", st.CacheHits, st.CacheMisses, distinct, distinct)
	}
}
