// Package campaign scales the paper's optimisers from one goroutine to
// the whole machine. Three layers build on each other:
//
//   - Engine, a caching evaluation service that plugs into the
//     optimisers through core.EvalHook: the optimisers hand it one
//     candidate at a time, every evaluation goes through a bounded LRU
//     cache keyed on the configuration fingerprint, and a context
//     cancels in-flight work. An engine serves one system. An
//     evaluation runs on the caller's goroutine, on an evaluation
//     session (core.Session) taken from the engine's free list, so the
//     reusable-analyzer and schedule-table reuse of the serial path
//     carries over; the list holds one session per evaluation that
//     ever ran at the same time. EvalBatch fans a set of independent
//     points (the Fig. 7 sweep) across EngineOptions.Workers
//     goroutines. Because evaluations are pure, results are
//     bit-identical to the serial optimisers;
//   - Portfolio, which races BBC, OBC-CF, OBC-EE and SA concurrently
//     on one system over a shared engine (the cheap heuristics warm
//     the cache for the expensive ones), one goroutine per algorithm,
//     and reports the best result plus per-algorithm telemetry;
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
	// Workers is the number of goroutines EvalBatch (the Fig. 7
	// sweep) fans its candidates across; <= 0 selects GOMAXPROCS.
	// Nothing else reads it: Eval runs on the caller's goroutine.
	// EvalBatch results are position-aligned, so every worker count
	// produces identical results — only the wall-clock changes.
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

// EngineCounters accumulate EngineStats from any number of goroutines:
// every Engine counts its own work in one, and the serving layer and
// the job manager track their process totals with one. The zero value
// is ready to use.
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

// engineSession is one evaluation session of the free list and the
// (system, scheduler options) pair it was built for. Every engine
// serves a single pair — Portfolio, a campaign's per-system step, the
// Fig. 7 sweep — so the session is built on first use and only
// replaced if the engine is ever asked for another pair. Only the
// goroutine that took it off the free list uses it, so no locking is
// needed inside.
type engineSession struct {
	sys  *model.System
	opts sched.Options
	sess *core.Session
}

// session returns the session for (sys, opts).
func (s *engineSession) session(sys *model.System, opts sched.Options) *core.Session {
	if s.sess == nil || s.sys != sys || s.opts != opts {
		s.sys, s.opts, s.sess = sys, opts, core.NewSession(sys, opts)
	}
	return s.sess
}

// Engine is a concurrent, caching evaluation service for candidate bus
// configurations. It implements core.EvalHook; install it with Hook.
// An Engine is safe for use by any number of goroutines.
type Engine struct {
	ctx context.Context
	// width is the EvalBatch fan-out.
	width int

	// The evaluation cache and the session free list sit behind one
	// mutex: an evaluation costs far more than the map lookup or the
	// slice pop the lock guards.
	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      list.List // of *cacheEntry, most recent first
	capacity int
	// free holds the idle sessions, last returned on top, so one
	// caller's back-to-back evaluations keep reusing one warm session.
	free []*engineSession

	counters EngineCounters
}

var _ core.EvalHook = (*Engine)(nil)

// ClampWorkers bounds a requested worker count to 8×GOMAXPROCS:
// evaluations are pure CPU, so parallelism beyond that only costs
// memory — and the request may come from an untrusted client
// (flexray-serve forwards worker counts from job specs). Campaigns,
// sweeps and NewEngine resolve their worker counts through it.
func ClampWorkers(w int) int {
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
	return newEngine(ctx, ClampWorkers(w), DefaultCacheSize)
}

// newEngine builds an engine with an EvalBatch fan-out of w and an
// evaluation cache of the given capacity.
func newEngine(ctx context.Context, w, capacity int) *Engine {
	return &Engine{
		ctx:      ctx,
		width:    w,
		entries:  map[cacheKey]*list.Element{},
		capacity: capacity,
	}
}

// Hook returns a copy of opts with the engine installed as the
// evaluation hook of the optimisers.
func (e *Engine) Hook(opts core.Options) core.Options {
	opts.Eval = e
	return opts
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats { return e.counters.Total() }

// Cancelled reports whether the engine's context has been cancelled
// (results produced afterwards are garbage by design).
func (e *Engine) Cancelled() bool { return e.ctx.Err() != nil }

// Eval evaluates one candidate configuration: cache lookup, then one
// schedule build plus holistic analysis on a free-list session, on the
// caller's goroutine.
func (e *Engine) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	return e.eval(sys, cfg, opts, nil)
}

// eval is Eval on session s, or on a free-list session when s is nil.
func (e *Engine) eval(sys *model.System, cfg *flexray.Config, opts sched.Options, s *engineSession) (*analysis.Result, float64) {
	key := cacheKey{sys: sys, fp: cfg.Fingerprint(), opts: opts}
	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		e.lru.MoveToFront(el)
		e.mu.Unlock()
		e.counters.hits.Add(1)
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
	e.counters.misses.Add(1)
	// A cancelled evaluation caches an infeasible marker; that is
	// sound because the engine's lifetime is bound to its context —
	// every result produced after cancellation is discarded anyway.
	ent.res, ent.cost = e.run(sys, cfg, opts, s)
	close(ent.done)
	return ent.res, ent.cost
}

// EvalBatch evaluates independent candidates on w = min(Workers,
// len(cfgs)) goroutines and returns positionally aligned results.
// Goroutine k takes one session off the free list and evaluates
// candidates k, k+w, k+2w, ... on it: a fixed share rather than the
// next free index, so every session sees the same candidates in the
// same order whatever the goroutines' timing, and the batch allocates
// the same on every run. Every candidate takes the per-candidate cache
// protocol of Eval (lookup, in-flight coalescing, insert). The
// optimisers never call it — they evaluate one candidate at a time
// through Eval — but the Fig. 7 sweep does: its points are independent
// and nothing else runs on its engine, so the fan-out is the only
// parallelism it has.
func (e *Engine) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	w := min(e.width, len(cfgs))
	var wg sync.WaitGroup
	for k := range w {
		s := e.take()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(cfgs); i += w {
				ress[i], costs[i] = e.eval(sys, cfgs[i], opts, s)
			}
			e.give(s)
		}()
	}
	wg.Wait()
	return ress, costs
}

// take pops the most recently returned session off the free list, or
// makes a new one when the list is empty.
func (e *Engine) take() *engineSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.free)
	if n == 0 {
		return &engineSession{}
	}
	s := e.free[n-1]
	e.free = e.free[:n-1]
	return s
}

// give pushes s back onto the free list.
func (e *Engine) give(s *engineSession) {
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

// run performs the real work on session s, or on one taken from the
// free list for this evaluation when s is nil.
func (e *Engine) run(sys *model.System, cfg *flexray.Config, opts sched.Options, s *engineSession) (*analysis.Result, float64) {
	if e.ctx.Err() != nil {
		return nil, infeasibleCost
	}
	if s == nil {
		s = e.take()
		defer e.give(s)
	}
	e.counters.evals.Add(1)
	return s.session(sys, opts).Eval(cfg)
}
