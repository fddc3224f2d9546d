// Package campaign scales the paper's optimisers from one goroutine to
// the whole machine. Three layers build on each other:
//
//   - Engine, a worker-pool evaluation service that plugs into the
//     optimisers through core.EvalHook: independent candidate
//     configurations (the BBC/OBC-EE sweep grids) are evaluated
//     concurrently, every evaluation goes through a bounded LRU cache
//     keyed on the configuration fingerprint, and a context
//     cancels in-flight work. An engine serves one system, and each
//     worker owns one evaluation session (core.Session) for it, so the
//     reusable-analyzer and schedule-table reuse of the serial path
//     carries over to every worker. Because evaluations are pure, any
//     worker count produces bit-identical optimiser results —
//     workers=1 reproduces the serial behaviour exactly;
//   - Portfolio, which races BBC, OBC-CF, OBC-EE and SA concurrently
//     on one system over a shared engine (the cheap heuristics warm
//     the cache for the expensive ones) and reports the best result
//     plus per-algorithm telemetry;
//   - Run, which shards a generated population (the paper's Section 7
//     experiment sweeps) across workers deterministically and streams
//     per-system records, e.g. as JSONL.
package campaign

import (
	"container/list"
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
)

// infeasibleCost mirrors the optimisers' marker for configurations that
// could not be scheduled; cancelled evaluations report it too, so no
// optimiser ever prefers an aborted candidate.
const infeasibleCost = 1e15

// DefaultCacheSize bounds the evaluation cache of every engine, in
// entries.
const DefaultCacheSize = 4096

// EngineOptions tune one evaluation engine.
type EngineOptions struct {
	// Workers is the number of goroutines evaluating candidate
	// configurations; <= 0 selects GOMAXPROCS. Evaluations are pure
	// and batch reductions are position-aligned, so every worker
	// count produces identical optimiser results — only the
	// wall-clock changes.
	Workers int `json:"workers"`
}

// EngineStats report what an engine actually did. Cache hits include
// evaluations coalesced with an identical in-flight one.
type EngineStats struct {
	// Evaluations counts real schedule+analysis runs.
	Evaluations int64 `json:"evaluations"`
	// CacheHits counts evaluations answered from the cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts evaluations that had to run.
	CacheMisses int64 `json:"cache_misses"`
}

// Add folds another snapshot into s.
func (s *EngineStats) Add(o EngineStats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// EngineCounters accumulate EngineStats from any number of goroutines;
// the serving layer and the job manager track their process totals
// with one. The zero value is ready to use.
type EngineCounters struct {
	evals, hits, misses atomic.Int64
}

// Add folds one snapshot into the counters.
func (c *EngineCounters) Add(st EngineStats) {
	c.evals.Add(st.Evaluations)
	c.hits.Add(st.CacheHits)
	c.misses.Add(st.CacheMisses)
}

// Total snapshots the accumulated counters.
func (c *EngineCounters) Total() EngineStats {
	return EngineStats{
		Evaluations: c.evals.Load(),
		CacheHits:   c.hits.Load(),
		CacheMisses: c.misses.Load(),
	}
}

// cacheKey identifies one evaluation: the system instance, the
// configuration digest and the exact scheduler options.
type cacheKey struct {
	sys  *model.System
	fp   [16]byte
	opts sched.Options
}

// cacheEntry is one memoised (possibly still in-flight) evaluation.
// done is closed once res/cost are valid; concurrent evaluations of the
// same key coalesce by waiting on it instead of re-running the build.
type cacheEntry struct {
	key  cacheKey
	res  *analysis.Result
	cost float64
	done chan struct{}
}

// engineWorker is the state pinned to one worker slot: one evaluation
// session and the (system, scheduler options) pair it was built for.
// Every engine serves a single pair — Portfolio, a campaign's
// per-system step, the Fig. 7 sweep — so the session is built on first
// use and only replaced if the engine is ever asked for another pair.
// Only one goroutine holds a worker at a time, so no locking is needed
// inside.
type engineWorker struct {
	sys  *model.System
	opts sched.Options
	sess *core.Session
}

// session returns the worker's session for (sys, opts).
func (w *engineWorker) session(sys *model.System, opts sched.Options) *core.Session {
	if w.sess == nil || w.sys != sys || w.opts != opts {
		w.sys, w.opts, w.sess = sys, opts, core.NewSession(sys, opts)
	}
	return w.sess
}

// Engine is a concurrent, caching evaluation service for candidate bus
// configurations. It implements core.EvalHook; install it with Hook.
// An Engine is safe for use by any number of goroutines.
type Engine struct {
	ctx context.Context
	// workers is the pool of pinned worker states; receiving one
	// grants a worker slot, returning it frees the slot.
	workers chan *engineWorker

	// The evaluation cache sits behind one mutex: an evaluation costs
	// far more than the map lookup the lock guards.
	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      list.List // of *cacheEntry, most recent first
	capacity int

	evals  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

var _ core.EvalHook = (*Engine)(nil)

// clampWorkers bounds a requested worker count to a small multiple of
// the CPU count: evaluations are pure CPU, so parallelism beyond that
// only costs memory — and the request may come from an untrusted
// client (flexray-serve forwards worker counts from job specs).
func clampWorkers(w int) int {
	if max := 8 * runtime.GOMAXPROCS(0); w > max {
		return max
	}
	return w
}

// NewEngine builds an engine with a DefaultCacheSize evaluation cache.
// The context cancels in-flight and future evaluations: after
// cancellation every evaluation returns an infeasible cost immediately,
// so running optimisers drain fast and their results must be discarded
// by the caller.
func NewEngine(ctx context.Context, opts EngineOptions) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return newEngine(ctx, clampWorkers(w), DefaultCacheSize)
}

// newEngine builds an engine with w worker slots and an evaluation
// cache of the given capacity.
func newEngine(ctx context.Context, w, capacity int) *Engine {
	e := &Engine{
		ctx:      ctx,
		workers:  make(chan *engineWorker, w),
		entries:  map[cacheKey]*list.Element{},
		capacity: capacity,
	}
	for i := 0; i < w; i++ {
		e.workers <- &engineWorker{}
	}
	return e
}

// Hook returns a copy of opts with the engine installed as the
// evaluation hook of the optimisers.
func (e *Engine) Hook(opts core.Options) core.Options {
	opts.Eval = e
	return opts
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Evaluations: e.evals.Load(),
		CacheHits:   e.hits.Load(),
		CacheMisses: e.misses.Load(),
	}
}

// Cancelled reports whether the engine's context has been cancelled
// (results produced afterwards are garbage by design).
func (e *Engine) Cancelled() bool { return e.ctx.Err() != nil }

// Eval evaluates one candidate configuration: cache lookup, then one
// schedule build plus holistic analysis on a pinned worker session.
func (e *Engine) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	key := cacheKey{sys: sys, fp: cfg.Fingerprint(), opts: opts}
	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		e.lru.MoveToFront(el)
		e.mu.Unlock()
		e.hits.Add(1)
		<-ent.done
		return ent.res, ent.cost
	}
	ent := &cacheEntry{key: key, done: make(chan struct{})}
	e.entries[key] = e.lru.PushFront(ent)
	for e.lru.Len() > e.capacity {
		oldest := e.lru.Back()
		e.lru.Remove(oldest)
		delete(e.entries, oldest.Value.(*cacheEntry).key)
	}
	e.mu.Unlock()
	e.misses.Add(1)
	// A cancelled evaluation caches an infeasible marker; that is
	// sound because the engine's lifetime is bound to its context —
	// every result produced after cancellation is discarded anyway.
	ent.res, ent.cost = e.run(sys, cfg, opts)
	close(ent.done)
	return ent.res, ent.cost
}

// EvalBatch evaluates independent candidates across the worker pool and
// returns positionally aligned results. Every candidate takes the
// per-candidate cache protocol of Eval (lookup, in-flight coalescing,
// insert), one goroutine each when the engine has more than one worker.
func (e *Engine) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	if cap(e.workers) == 1 || len(cfgs) <= 1 {
		// A single worker slot serialises the batch anyway; skip the
		// goroutine fan-out.
		for i, cfg := range cfgs {
			ress[i], costs[i] = e.Eval(sys, cfg, opts)
		}
		return ress, costs
	}
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg *flexray.Config) {
			defer wg.Done()
			ress[i], costs[i] = e.Eval(sys, cfg, opts)
		}(i, cfg)
	}
	wg.Wait()
	return ress, costs
}

// run performs the real work on a pinned worker session.
func (e *Engine) run(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	var wk *engineWorker
	select {
	case wk = <-e.workers:
		defer func() { e.workers <- wk }()
	case <-e.ctx.Done():
		return nil, infeasibleCost
	}
	if e.ctx.Err() != nil {
		return nil, infeasibleCost
	}
	e.evals.Add(1)
	return wk.session(sys, opts).Eval(cfg)
}
