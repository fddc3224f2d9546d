package campaign

import (
	"context"
	"fmt"
	"runtime/pprof"
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

// NormalizeAlgorithm maps user-facing spellings ("obc-cf", "ObcCf",
// "sa") onto the canonical names of Algorithms.
func NormalizeAlgorithm(name string) (string, error) {
	n := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(name), "_", "-"))
	for _, a := range Algorithms {
		if n == a || n == strings.ReplaceAll(a, "-", "") {
			return a, nil
		}
	}
	return "", fmt.Errorf("campaign: unknown algorithm %q (want one of %s)",
		name, strings.Join(Algorithms, ", "))
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
	// than one worker it is well below the sum of the per-run times.
	Elapsed time.Duration
}

// Portfolio races the requested optimisers (default: all of
// Algorithms) concurrently on one system over a shared evaluation
// engine and returns the best result plus per-algorithm telemetry.
// Every algorithm still runs to completion so the telemetry is
// complete. The shared engine deduplicates overlapping candidate
// evaluations across algorithms (BBC's sweep is a subset of OBC's
// seed sweep, and SA revisits configurations).
//
// Results are deterministic for any EngineOptions.Workers value; the
// engine only changes how fast they arrive. Cancelling ctx aborts the
// race with ctx's error.
func Portfolio(ctx context.Context, sys *model.System, opts core.Options, eng EngineOptions, algorithms ...string) (*PortfolioResult, error) {
	if len(algorithms) == 0 {
		algorithms = Algorithms
	}
	algs := make([]string, len(algorithms))
	for i, a := range algorithms {
		c, err := NormalizeAlgorithm(a)
		if err != nil {
			return nil, err
		}
		algs[i] = c
	}

	start := time.Now()
	engine := NewEngine(ctx, eng)
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
	out := &PortfolioResult{
		Runs:    runs,
		Engine:  engine.Stats(),
		Elapsed: time.Since(start),
	}
	if best := bestRun(runs); best != nil {
		out.Best = best.Result
	}
	if out.Best == nil {
		for _, r := range runs {
			if r.Err != "" {
				return nil, fmt.Errorf("campaign: every algorithm failed, first: %s", r.Err)
			}
		}
		return nil, fmt.Errorf("campaign: empty portfolio")
	}
	return out, nil
}
