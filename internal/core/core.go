// Package core implements the paper's contribution: bus access
// optimisation for FlexRay-based distributed embedded systems
// (Section 6). Given a system model, the optimisers determine (1) the
// length of the static slots, (2) their number, (3) their assignment to
// nodes, (4) the length of the dynamic segment, and (5)+(6) the
// FrameIDs of the dynamic messages, so that the holistic analysis
// (package analysis) reports all deadlines met.
//
// Four approaches are provided, matching the experimental section:
//
//   - BBC — the Basic Bus Configuration (Fig. 5);
//   - OBCEE — the OBC heuristic with exhaustive exploration of the
//     dynamic segment length (Fig. 6);
//   - OBCCF — the OBC heuristic with the curve-fitting based dynamic
//     segment sizing (Fig. 6 + Fig. 8);
//   - SA — a simulated-annealing design-space exploration used as the
//     evaluation baseline.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/units"
)

// EvalHook intercepts the evaluation of candidate configurations (one
// global scheduling run plus one holistic analysis each). The campaign
// engine plugs in here to add caching, cancellation and worker-pool
// parallelism without the optimisers knowing. Implementations must be
// pure: the same (system, config, options) triple must always produce
// the same result, and EvalBatch must return slices positionally
// aligned with cfgs. A nil analysis result with an infeasible cost
// marks configurations that could not be scheduled at all.
type EvalHook interface {
	// Eval evaluates one candidate configuration.
	Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64)
	// EvalBatch evaluates independent candidates, possibly
	// concurrently; the optimisers only call it for candidate sets
	// whose evaluations do not depend on each other.
	EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64)
}

// Options tune the optimisers. Zero values select the defaults of
// DefaultOptions.
type Options struct {
	// Params are the physical-layer constants.
	Params flexray.Params
	// MinislotLen is gdMinislot; defaults to one macrotick.
	MinislotLen units.Duration
	// Policy is the latest-transmission rule of candidate
	// configurations.
	Policy flexray.LatestTxPolicy
	// Sched holds the analysis options of every evaluation.
	Sched sched.Options

	// DYNGridCap caps the number of dynamic-segment lengths in a
	// sweep grid (BBC line 5, OBCEE, and the interpolation grid of
	// OBCCF). The paper sweeps in single-minislot steps; the cap
	// trades a coarser grid for tractable experiment turnaround and
	// never changes who wins (see EXPERIMENTS.md).
	DYNGridCap int
	// SlotCountCap caps gdNumberOfStaticSlots explored by OBC as a
	// multiple of the BBC minimum (protocol max 1023 still applies);
	// 0 means 4x.
	SlotCountCap int
	// SlotLenSteps caps how many 20·gdBit increments of gdStaticSlot
	// OBC explores; 0 means 8.
	SlotLenSteps int
	// InitialPoints is the size of the initial support set of the
	// curve-fitting heuristic (the paper used five).
	InitialPoints int
	// Nmax is the curve-fitting termination bound: iterations
	// without a schedulable solution or cost improvement (the paper
	// used ten).
	Nmax int

	// MaxEvaluations bounds the schedule+analysis runs one optimiser
	// invocation may spend (0 = unlimited). All heuristics are
	// anytime algorithms: when the budget runs out they return the
	// best configuration seen so far.
	MaxEvaluations int

	// Eval, when non-nil, replaces the built-in serial evaluation of
	// candidate configurations. Results are unchanged for any pure
	// hook; see EvalHook.
	Eval EvalHook

	// Span, when non-nil, is the span the optimiser records itself
	// under: the campaign layer sets it to the per-algorithm
	// "opt.<ALG>" span. The run's convergence curve lands on it as
	// one "best" event per candidate that lowers the running best
	// cost (attributes evaluations, cost, elapsed_us, and for SA
	// temperature). When the tracer asks for GranPhase detail
	// (Span.Phases()) the optimisers also add child spans for their
	// internal phases (OBC seed sweep and exploration, curve-fit
	// support/refine, the SA anneal loop, the BBC sweep); phase spans
	// wrap whole loops and never carry events. A nil Span costs one
	// nil check per candidate and never allocates, keeping the
	// pinned session-evaluation allocation count intact.
	Span *obs.Span

	// SAIterations bounds the simulated annealing run.
	SAIterations int
	// SAWarmStart, when non-nil, seeds the annealer with an existing
	// configuration instead of the BBC minimum. The experiments pass
	// the best OBC result so that a modest iteration budget emulates
	// the paper's "several hours" baseline runs.
	SAWarmStart *flexray.Config
	// SASeed seeds the annealer's PRNG (deterministic baselines).
	SASeed int64
	// SAInitTemp and SACooling define the geometric cooling
	// schedule; zero values derive them from the starting cost and
	// SAIterations.
	SAInitTemp float64
	SACooling  float64
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{
		Params:        flexray.DefaultParams(),
		MinislotLen:   units.Microsecond,
		Policy:        flexray.LatestTxPerFrame,
		Sched:         sched.DefaultOptions(),
		DYNGridCap:    64,
		SlotCountCap:  4,
		SlotLenSteps:  8,
		InitialPoints: 5,
		Nmax:          10,
		SAIterations:  2000,
		SASeed:        1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Params == (flexray.Params{}) {
		o.Params = d.Params
	}
	if o.MinislotLen <= 0 {
		o.MinislotLen = d.MinislotLen
	}
	if o.DYNGridCap <= 0 {
		o.DYNGridCap = d.DYNGridCap
	}
	if o.SlotCountCap <= 0 {
		o.SlotCountCap = d.SlotCountCap
	}
	if o.SlotLenSteps <= 0 {
		o.SlotLenSteps = d.SlotLenSteps
	}
	if o.InitialPoints <= 0 {
		o.InitialPoints = d.InitialPoints
	}
	if o.Nmax <= 0 {
		o.Nmax = d.Nmax
	}
	if o.SAIterations <= 0 {
		o.SAIterations = d.SAIterations
	}
	return o
}

// Result is the outcome of one optimisation run.
type Result struct {
	// Config is the best bus configuration found (never nil on a nil
	// error, even if unschedulable).
	Config *flexray.Config
	// Analysis is the holistic analysis of Config.
	Analysis *analysis.Result
	// Cost is Analysis.Cost (Eq. 5): <= 0 iff schedulable.
	Cost float64
	// Schedulable is Analysis.Schedulable.
	Schedulable bool
	// Evaluations counts full schedule+analysis runs performed.
	Evaluations int
	// Elapsed is the wall-clock optimisation time.
	Elapsed time.Duration
	// Algorithm names the approach ("BBC", "OBC-CF", "OBC-EE",
	// "SA").
	Algorithm string
}

// infeasibleCost marks configurations that could not even be scheduled
// (no slot found for an ST message and similar structural failures).
const infeasibleCost = 1e15

// evaluator runs the global scheduling algorithm plus holistic analysis
// for candidate configurations and counts the evaluations. The built-in
// path owns one evaluation Session, created lazily, so every candidate
// of one optimiser invocation reuses the same analyzer state and
// schedule table. It also carries the run identity (algorithm,
// start time) and the convergence state behind the span events.
type evaluator struct {
	sys   *model.System
	opts  Options
	alg   string
	start time.Time
	evals int
	sess  *Session

	// Convergence state, only touched when opts.Span is set: the
	// running best cost, and the SA temperature the next candidate is
	// evaluated at (zero for the sweeps and SA's starting point).
	best float64
	temp float64
}

// newEvaluator starts an optimisation run for one algorithm.
func newEvaluator(sys *model.System, opts Options, alg string) *evaluator {
	return &evaluator{sys: sys, opts: opts, alg: alg, start: time.Now(), best: math.Inf(1)}
}

// observe records a "best" event on the run's span when the nth
// evaluation's cost lowers the running best — the improvement-only
// envelope of the convergence curve, whose last point is the result
// cost. Callers check opts.Span for nil first, so an untraced run
// builds no attributes.
func (e *evaluator) observe(nth int, cost float64) {
	if cost >= e.best {
		return
	}
	e.best = cost
	attrs := make([]obs.Attr, 0, 4)
	attrs = append(attrs,
		obs.IntAttr("evaluations", int64(nth)),
		obs.FloatAttr("cost", cost),
		obs.IntAttr("elapsed_us", time.Since(e.start).Microseconds()))
	if e.temp > 0 {
		attrs = append(attrs, obs.FloatAttr("temperature", e.temp))
	}
	e.opts.Span.AddEvent("best", attrs...)
}

// observeBatch observes the costs of the batch that just brought the
// evaluation count to e.evals, in candidate order.
func (e *evaluator) observeBatch(costs []float64) {
	if e.opts.Span == nil {
		return
	}
	first := e.evals - len(costs)
	for i, c := range costs {
		e.observe(first+i+1, c)
	}
}

// session returns the evaluator's built-in evaluation session.
func (e *evaluator) session() *Session {
	if e.sess == nil {
		e.sess = NewSession(e.sys, e.opts.Sched)
	}
	return e.sess
}

func (e *evaluator) eval(cfg *flexray.Config) (res *analysis.Result, cost float64) {
	e.evals++
	if e.opts.Eval != nil {
		res, cost = e.opts.Eval.Eval(e.sys, cfg, e.opts.Sched)
	} else {
		res, cost = e.session().Eval(cfg)
	}
	if e.opts.Span != nil {
		e.observe(e.evals, cost)
	}
	return res, cost
}

// evalBatch evaluates a slice of independent candidates and returns the
// positionally aligned results plus how many were evaluated. The
// remaining MaxEvaluations budget truncates the batch in slice order —
// exactly the prefix the serial loop would have reached — so batched
// sweeps spend the budget identically to candidate-at-a-time sweeps.
func (e *evaluator) evalBatch(cfgs []*flexray.Config) ([]*analysis.Result, []float64, int) {
	n := len(cfgs)
	if e.opts.MaxEvaluations > 0 {
		if rem := e.opts.MaxEvaluations - e.evals; rem < n {
			n = rem
			if n < 0 {
				n = 0
			}
		}
	}
	ress, costs := e.evalBatchAll(cfgs[:n])
	return ress, costs, n
}

// evalBatchAll evaluates every candidate regardless of the remaining
// budget — the batched form of back-to-back e.eval calls on a fixed
// slice, for call sites whose serial loop did not consult the budget
// between evaluations (the curve fit's initial support set). With no
// hook installed the batch is a plain loop through the evaluator's
// session, in slice order.
func (e *evaluator) evalBatchAll(cfgs []*flexray.Config) (ress []*analysis.Result, costs []float64) {
	e.evals += len(cfgs)
	if e.opts.Eval != nil {
		ress, costs = e.opts.Eval.EvalBatch(e.sys, cfgs, e.opts.Sched)
	} else {
		ress = make([]*analysis.Result, len(cfgs))
		costs = make([]float64, len(cfgs))
		sess := e.session()
		for i, cfg := range cfgs {
			ress[i], costs[i] = sess.Eval(cfg)
		}
	}
	e.observeBatch(costs)
	return ress, costs
}

// exhausted reports whether the evaluation budget has run out.
func (e *evaluator) exhausted() bool {
	return e.opts.MaxEvaluations > 0 && e.evals >= e.opts.MaxEvaluations
}

// AssignFrameIDs implements BBC step 1 (Fig. 5 line 1): every DYN
// message gets a unique FrameID — avoiding hp(m) delays — and more
// critical messages (smaller CPm = Dm - LPm, Eq. 4) get smaller
// FrameIDs — reducing lf(m)/ms(m) delays.
func AssignFrameIDs(sys *model.System) (map[model.ActID]int, error) {
	cp, err := sys.App.Criticality()
	if err != nil {
		return nil, err
	}
	msgs := sys.App.Messages(int(model.DYN))
	sort.Slice(msgs, func(i, j int) bool {
		ci, cj := cp[msgs[i]], cp[msgs[j]]
		if ci != cj {
			return ci < cj // more critical first
		}
		return msgs[i] < msgs[j]
	})
	fids := make(map[model.ActID]int, len(msgs))
	for i, m := range msgs {
		fids[m] = i + 1
	}
	return fids, nil
}

// dynBounds computes the feasible interval for the number of minislots
// (Fig. 5 line 5): the segment must be reachable for every message
// (FrameID + size - 1 <= n), is capped by the protocol's 7994
// minislots, and together with the static segment must keep the cycle
// under 16 ms.
func dynBounds(sys *model.System, cfg *flexray.Config, msLen units.Duration) (minMS, maxMS int) {
	for m, fid := range cfg.FrameID {
		a := sys.App.Act(m)
		s := int(units.CeilDiv(int64(a.C), int64(msLen)))
		if n := fid + s - 1; n > minMS {
			minMS = n
		}
	}
	if len(cfg.FrameID) > minMS {
		minMS = len(cfg.FrameID)
	}
	budget := int64(flexray.MaxCycle) - 1 - int64(cfg.STBus())
	maxMS = int(budget / int64(msLen))
	if maxMS > flexray.MaxMinislots {
		maxMS = flexray.MaxMinislots
	}
	return minMS, maxMS
}

// dynGrid enumerates candidate minislot counts between min and max,
// capped at `points` values (endpoints always included).
func dynGrid(min, max, points int) []int {
	if max < min {
		return nil
	}
	n := max - min + 1
	if points < 2 {
		points = 2
	}
	if n <= points {
		out := make([]int, 0, n)
		for v := min; v <= max; v++ {
			out = append(out, v)
		}
		return out
	}
	out := make([]int, 0, points)
	for i := 0; i < points; i++ {
		v := min + int(math.Round(float64(i)*float64(max-min)/float64(points-1)))
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// roundUp rounds d up to a positive multiple of q.
func roundUp(d, q units.Duration) units.Duration {
	if q <= 0 {
		return d
	}
	return units.Duration(units.CeilDiv(int64(d), int64(q))) * q
}

// minStaticSlotLen is gdStaticSlot_min: the largest ST message must fit
// one slot (Fig. 5 line 3), rounded up to a macrotick.
func minStaticSlotLen(sys *model.System, p flexray.Params) units.Duration {
	maxST := sys.App.MaxC(func(a *model.Activity) bool {
		return a.IsMessage() && a.Class == model.ST
	})
	if maxST == 0 {
		return 0
	}
	return roundUp(maxST, p.Macrotick)
}

// newConfig assembles a candidate configuration skeleton shared by all
// optimisers.
func (o Options) newConfig(fids map[model.ActID]int) *flexray.Config {
	f := make(map[model.ActID]int, len(fids))
	for k, v := range fids {
		f[k] = v
	}
	return &flexray.Config{
		MinislotLen: o.MinislotLen,
		FrameID:     f,
		Policy:      o.Policy,
	}
}

// assignSlotsRoundRobin gives each ST-sending node one slot in node
// order, repeating until all slots are assigned (BBC uses exactly one
// per node; larger counts wrap around).
func assignSlotsRoundRobin(senders []model.NodeID, numSlots int) []model.NodeID {
	owners := make([]model.NodeID, numSlots)
	for i := range owners {
		if len(senders) == 0 {
			owners[i] = -1
			continue
		}
		owners[i] = senders[i%len(senders)]
	}
	return owners
}

// assignSlotsByQuota distributes slots proportionally to the number of
// ST messages each node sends (Fig. 6 line 5: "each node can have not
// only one but a quota of ST slots, determined by the ratio of ST
// messages that it transmits"), interleaved in node order.
func assignSlotsByQuota(sys *model.System, numSlots int) []model.NodeID {
	senders := sys.App.STSenderNodes()
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	if len(senders) == 0 || numSlots == 0 {
		return make([]model.NodeID, 0)
	}
	counts := map[model.NodeID]int{}
	total := 0
	for _, m := range sys.App.Messages(int(model.ST)) {
		counts[sys.App.Act(m).Node]++
		total++
	}
	// Largest-remainder apportionment with a floor of one slot per
	// sender.
	quota := make(map[model.NodeID]int, len(senders))
	assigned := 0
	type rem struct {
		n model.NodeID
		r float64
	}
	var rems []rem
	for _, n := range senders {
		share := float64(numSlots) * float64(counts[n]) / float64(total)
		q := int(share)
		if q < 1 {
			q = 1
		}
		quota[n] = q
		assigned += q
		rems = append(rems, rem{n, share - math.Floor(share)})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].r != rems[j].r {
			return rems[i].r > rems[j].r
		}
		return rems[i].n < rems[j].n
	})
	for i := 0; assigned < numSlots; i = (i + 1) % len(rems) {
		quota[rems[i].n]++
		assigned++
	}
	for i := 0; assigned > numSlots; i = (i + 1) % len(rems) {
		n := rems[len(rems)-1-(i%len(rems))].n
		if quota[n] > 1 {
			quota[n]--
			assigned--
		}
	}
	// Interleave: repeated node-order passes while quota remains.
	owners := make([]model.NodeID, 0, numSlots)
	left := make(map[model.NodeID]int, len(quota))
	for n, q := range quota {
		left[n] = q
	}
	for len(owners) < numSlots {
		progressed := false
		for _, n := range senders {
			if left[n] > 0 && len(owners) < numSlots {
				owners = append(owners, n)
				left[n]--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for len(owners) < numSlots {
		owners = append(owners, senders[len(owners)%len(senders)])
	}
	return owners
}

// finish packages a result.
func (e *evaluator) finish(cfg *flexray.Config, res *analysis.Result, cost float64) *Result {
	r := &Result{
		Config:      cfg,
		Analysis:    res,
		Cost:        cost,
		Evaluations: e.evals,
		Elapsed:     time.Since(e.start),
		Algorithm:   e.alg,
	}
	if res != nil {
		r.Schedulable = res.Schedulable
	}
	return r
}

// errNoDYNRoom reports a system whose minimal bus cycle already exceeds
// the protocol limit.
var errNoDYNRoom = fmt.Errorf("core: minimal configuration exceeds the 16 ms cycle limit")

// checkSTFits rejects systems whose largest ST message cannot fit even
// the maximum static slot the protocol allows: no configuration can
// carry them.
func checkSTFits(sys *model.System, p flexray.Params) error {
	if min := minStaticSlotLen(sys, p); min > p.MaxStaticSlotLen() {
		return fmt.Errorf("core: largest ST message needs a %v slot, protocol maximum is %v (%d macroticks)",
			min, p.MaxStaticSlotLen(), flexray.MaxStaticSlotMacroticks)
	}
	return nil
}
