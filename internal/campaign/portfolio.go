package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// Algorithms is the canonical optimiser portfolio, in the paper's
// order. Ties on cost are broken towards the earlier algorithm, so a
// portfolio run picks a deterministic winner.
var Algorithms = []string{"BBC", "OBC-CF", "OBC-EE", "SA"}

// ErrDuplicateAlgorithm reports an algorithm list that names one
// optimiser twice.
var ErrDuplicateAlgorithm = errors.New("campaign: algorithm listed twice")

// NormalizeAlgorithms maps the user-facing spellings of an algorithm
// list ("obc-cf", "ObcCf", "sa") onto the canonical names of
// Algorithms, keeping the order. It rejects unknown names and any
// optimiser listed twice, in any spelling: a portfolio runs one
// goroutine per entry, so a repeated name would only multiply the
// work. An empty list stays empty; callers default it to Algorithms.
func NormalizeAlgorithms(names []string) ([]string, error) {
	var algs []string
	for _, name := range names {
		n := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(name), "_", "-"))
		i := slices.IndexFunc(Algorithms, func(a string) bool {
			return n == a || n == strings.ReplaceAll(a, "-", "")
		})
		switch {
		case i < 0:
			return nil, fmt.Errorf("campaign: unknown algorithm %q (want one of %s)",
				name, strings.Join(Algorithms, ", "))
		case slices.Contains(algs, Algorithms[i]):
			return nil, fmt.Errorf("%w: %q is %s", ErrDuplicateAlgorithm, name, Algorithms[i])
		}
		algs = append(algs, Algorithms[i])
	}
	return algs, nil
}

// runAlgorithm dispatches one canonical algorithm name. Each run is
// recorded as an "opt.<name>" child span of opts.Span (when tracing)
// and labelled with `alg` for CPU-profile attribution; ctx carries
// the enclosing pprof label set (job_kind) forward.
func runAlgorithm(ctx context.Context, name string, sys *model.System, opts core.Options) (res *core.Result, err error) {
	sp := opts.Span.StartChild("opt." + name)
	opts.Span = sp
	pprof.Do(ctx, pprof.Labels("alg", name), func(context.Context) {
		switch name {
		case "BBC":
			res, err = core.BBC(sys, opts)
		case "OBC-CF":
			res, err = core.OBCCF(sys, opts)
		case "OBC-EE":
			res, err = core.OBCEE(sys, opts)
		case "SA":
			res, err = core.SA(sys, opts)
		default:
			err = fmt.Errorf("campaign: unknown algorithm %q", name)
		}
	})
	if err != nil {
		sp.Fail(err)
	} else if res != nil {
		sp.SetInt("evaluations", int64(res.Evaluations))
		sp.SetFloat("cost", res.Cost)
		sp.SetBool("schedulable", res.Schedulable)
	}
	sp.End()
	return res, err
}

// endSystemSpan closes a "campaign.system" span with the engine's
// final counters: cache hits count evaluations one algorithm saved
// another, the headline number the shared engine exists for.
func endSystemSpan(sp *obs.Span, st EngineStats) {
	sp.SetInt("evaluations", st.Evaluations)
	sp.SetInt("cache_hits", st.CacheHits)
	sp.SetInt("cache_misses", st.CacheMisses)
	sp.End()
}

// AlgoRun is the telemetry of one algorithm inside a portfolio or
// campaign run.
type AlgoRun struct {
	Algorithm   string  `json:"algorithm"`
	Cost        float64 `json:"cost"`
	Schedulable bool    `json:"schedulable"`
	Evaluations int     `json:"evaluations"`
	ElapsedUs   int64   `json:"elapsed_us"`
	Err         string  `json:"error,omitempty"`
	// Result is the full optimiser outcome (nil when Err is set); it
	// is kept for in-process consumers and skipped in JSON.
	Result *core.Result `json:"-"`
}

// bestRun picks the deterministic winner of a run set: canonical
// Algorithms order, strictly better cost to displace. Returns nil when
// no run produced a result.
func bestRun(runs []AlgoRun) *AlgoRun {
	var best *AlgoRun
	for _, alg := range Algorithms {
		for i := range runs {
			r := &runs[i]
			if r.Algorithm != alg || r.Result == nil {
				continue
			}
			if best == nil || r.Result.Cost < best.Result.Cost {
				best = r
			}
		}
	}
	return best
}

// newAlgoRun packages one optimiser outcome.
func newAlgoRun(alg string, res *core.Result, err error) AlgoRun {
	r := AlgoRun{Algorithm: alg, Result: res}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Cost = res.Cost
	r.Schedulable = res.Schedulable
	r.Evaluations = res.Evaluations
	r.ElapsedUs = res.Elapsed.Microseconds()
	return r
}

// PortfolioResult is the outcome of racing the optimiser portfolio on
// one system.
type PortfolioResult struct {
	// Best is the cheapest result across the portfolio (ties broken
	// by Algorithms order).
	Best *core.Result
	// Runs carries one entry per requested algorithm, in request
	// order.
	Runs []AlgoRun
	// Engine snapshots the shared evaluation engine after the race:
	// cache hits count work one algorithm saved another.
	Engine EngineStats
	// Elapsed is the wall-clock time of the whole race — with more
	// than one algorithm it is well below the sum of the per-run
	// times.
	Elapsed time.Duration
}

// Portfolio races the requested optimisers (default: all of
// Algorithms; see NormalizeAlgorithms) concurrently on one system, one
// goroutine each, over a shared evaluation engine and returns the best
// result plus per-algorithm telemetry. Every algorithm still runs to
// completion so the telemetry is complete. The shared engine
// deduplicates overlapping candidate evaluations across algorithms
// (BBC's sweep is a subset of OBC's seed sweep, and SA revisits
// configurations).
//
// Results are bit-identical to the serial optimisers. Cancelling ctx
// aborts the race with ctx's error.
func Portfolio(ctx context.Context, sys *model.System, opts core.Options, algorithms ...string) (*PortfolioResult, error) {
	algs, err := NormalizeAlgorithms(algorithms)
	if err != nil {
		return nil, err
	}
	if len(algs) == 0 {
		algs = Algorithms
	}
	return portfolio(ctx, newEngine(ctx, 1, DefaultCacheSize), sys, opts, algs)
}

// portfolio races the canonical algorithms algs over engine.
func portfolio(ctx context.Context, engine *Engine, sys *model.System, opts core.Options, algs []string) (*PortfolioResult, error) {
	start := time.Now()
	runOpts := engine.Hook(opts)
	// The per-system span groups the concurrent per-algorithm child
	// spans; engine cache counters land on it after the race.
	ctx, ssp := obs.StartSpan(ctx, "campaign.system")
	ssp.SetString("system", sys.Name)
	runOpts.Span = ssp

	runs := make([]AlgoRun, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg string) {
			defer wg.Done()
			res, err := runAlgorithm(ctx, alg, sys, runOpts)
			runs[i] = newAlgoRun(alg, res, err)
		}(i, alg)
	}
	wg.Wait()
	endSystemSpan(ssp, engine.Stats())

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	best := bestRun(runs)
	if best == nil {
		// Every run without a result carries its error.
		return nil, fmt.Errorf("campaign: every algorithm failed, first: %s", runs[0].Err)
	}
	return &PortfolioResult{Best: best.Result, Runs: runs, Engine: engine.Stats(), Elapsed: time.Since(start)}, nil
}
