// Package analysis implements the holistic schedulability analysis the
// paper builds on (Section 5, refs [13] and [14]): worst-case response
// times for FPS tasks executing in the slack of the static cyclic
// schedule, worst-case response times for DYN messages under FlexRay's
// FTDMA arbitration (Eq. 2-3), table-derived response times for SCS
// tasks and ST messages, and the schedulability cost function (Eq. 5)
// that drives the bus access optimisation.
package analysis

import (
	"math"
	"slices"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

// Options tune the analysis.
type Options struct {
	// ExactFill uses the exponential branch-and-bound "filled bus
	// cycles" computation instead of the polynomial greedy heuristic
	// (ref [14] proposes both). The exact solver falls back to the
	// heuristic when the search exceeds FillNodeCap nodes.
	ExactFill bool
	// FillNodeCap bounds the branch-and-bound search.
	FillNodeCap int
	// MaxOuterIter bounds the global jitter-propagation fixpoint.
	MaxOuterIter int
	// DivergenceFactor caps every busy window at
	// DivergenceFactor*max(D,T) of the activity; responses beyond it
	// saturate (the activity is reported unschedulable but the cost
	// stays finite so configurations remain comparable).
	DivergenceFactor int
}

// DefaultOptions returns the options used throughout the experiments.
func DefaultOptions() Options {
	return Options{
		ExactFill:        false,
		FillNodeCap:      200000,
		MaxOuterIter:     64,
		DivergenceFactor: 8,
	}
}

// withDefaults replaces every non-positive limit with its
// DefaultOptions value, so a zero Options analyses exactly like
// DefaultOptions().
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.FillNodeCap <= 0 {
		o.FillNodeCap = d.FillNodeCap
	}
	if o.MaxOuterIter <= 0 {
		o.MaxOuterIter = d.MaxOuterIter
	}
	if o.DivergenceFactor <= 0 {
		o.DivergenceFactor = d.DivergenceFactor
	}
	return o
}

// Result carries the outcome of one holistic analysis run.
type Result struct {
	// R maps every activity to its worst-case response time,
	// measured from the release of the owning graph instance. The
	// release jitters the analysis used are read from the Analyzer
	// (Analyzer.Jitter).
	R map[model.ActID]units.Duration
	// Schedulable reports whether every activity meets its deadline.
	Schedulable bool
	// Cost is the cost function of Eq. (5): strictly positive if any
	// deadline is missed (sum of overshoots), otherwise the negative
	// sum of slacks.
	Cost float64
	// Violations lists the activities missing their deadline.
	Violations []model.ActID
	// Converged is false when the jitter fixpoint hit MaxOuterIter;
	// response times are then safe upper bounds only if saturation
	// was reached monotonically (they are: the iteration is
	// monotone), but the configuration is reported unschedulable.
	Converged bool
}

// Analyzer performs holistic analyses of one system. An analyzer is a
// reusable evaluation session with a flat, index-addressed layout:
// every per-activity fact the Eq. (2)-(3) fixpoint touches (periods,
// deadlines, divergence caps, response times, jitters) lives in a dense
// array indexed by model.ActID, and the DYN interference environments
// live in arena slabs (dynArena) addressed by offsets rather than
// per-message heap objects. The system-dependent state is computed once
// and survives any number of Reset calls, while the configuration-
// dependent slabs are invalidated only when the part of the input they
// depend on actually changes, so a long-lived analyzer evaluates
// candidate configurations with almost no allocation beyond the Result
// it returns — and the fixpoint walks contiguous memory instead of
// chasing pointers through maps.
//
// Within one Run, each event-triggered activity's jitter-free response
// window (the FPS busy window, the DYN Eq. (3) fixpoint) is cached and
// recomputed only when the jitter of one of its interferers has changed
// since the window was computed: change stamps on the jitters and on
// the windows decide. The stamps are cleared at the start of every Run,
// so no window outlives the Run (or the Reset) that computed it.
//
// An Analyzer is not safe for concurrent use; give each goroutine its
// own.
type Analyzer struct {
	sys   *model.System
	cfg   *flexray.Config
	table *schedule.Table
	opts  Options

	// --- system-derived dense state (built once in NewReusable) ---

	// fpsOrder concatenates the FPS tasks of every node, each node's
	// run sorted by descending priority (ties broken by id, so the
	// analysis and the simulator agree on a total order). hpStart and
	// hpEnd give, per FPS ActID, the fpsOrder subrange holding its
	// strictly higher-priority same-node tasks — the prefix of the
	// node's run up to the task itself. Non-FPS ids map to the empty
	// range.
	fpsOrder []model.ActID
	hpStart  []int32
	hpEnd    []int32

	dynMsgs []model.ActID
	// dynIdx maps an ActID to its dense index in dynMsgs (-1 for
	// everything that is not a DYN message).
	dynIdx []int32

	// Per-ActID facts the inner loops would otherwise re-derive
	// through pointer chains (app.Graphs[app.Act(id).Graph]...).
	period   []units.Duration
	deadline []units.Duration
	capD     []units.Duration

	// --- fixpoint scratch, by ActID, cleared per Run ---

	// r/j hold the current response-time and jitter iterates; has[id]
	// records whether an entry was ever written (mirroring presence in
	// the Result.R map the fixpoint used to read).
	r   []units.Duration
	j   []units.Duration
	has []bool

	// win caches the jitter-free response window of each ET activity:
	// the FPS busy window, or SatAdd(w, C) of a DYN message (winSat
	// marks a DYN window saturated at the divergence cap, whose
	// response is the cap whatever the jitter). jStamp[id] is the step
	// at which Run last changed j[id]; winStamp[id] the step at which
	// win[id] was computed (0: not in this Run). A window is valid
	// while no interferer's jStamp is newer than its winStamp. The
	// arrays are carved from slabs NewReusable allocates anyway (r/j/win
	// share one, the stamps share hpStart's, winSat shares has'), so
	// the cache adds no allocation.
	win      []units.Duration
	winSat   []bool
	jStamp   []int32
	winStamp []int32
	step     int32

	// --- config-derived flat DYN state ---

	// ar holds the interference environments of DYN messages as arena
	// slabs; it depends on the FrameID assignment and the minislot
	// length of the bound configuration (the per-cycle need is
	// refreshed on every query, so NumMinislots changes never
	// invalidate it).
	ar dynArena
	// fids, sizeMS (by dense DYN index) and largestMS (by NodeID) are
	// rebound together with the arena: the bound FrameID (-1 when
	// unassigned), the frame size in minislots, and the largest bound
	// frame size per sender node (the pLatestTx input).
	fids      []int
	sizeMS    []int
	largestMS []int
	// envSig is the signature (minislot length, FrameID assignment)
	// the arena was built under; envSigScratch is the pooled buffer
	// the candidate signature is computed into. Working from a value
	// snapshot — not pointer identity — keeps the cache sound even
	// when a caller mutates a Config in place between Resets.
	envSig        []int64
	envSigScratch []int64

	// topo caches the deterministic topological order of every task
	// graph (system-dependent; computed on first use).
	topo     [][]model.ActID
	topoErr  []error
	topoDone []bool
}

// New builds an analyzer bound to one configuration and table.
func New(sys *model.System, cfg *flexray.Config, table *schedule.Table, opts Options) *Analyzer {
	a := NewReusable(sys, opts)
	a.Reset(cfg, table)
	return a
}

// NewReusable builds an unbound analyzer: the system-dependent state is
// initialised, but Reset must bind a configuration and table before the
// first Run. Reusing one analyzer across many candidate configurations
// amortises both this setup and the scratch buffers of the analysis.
// Non-positive limits in opts take their DefaultOptions values.
func NewReusable(sys *model.System, opts Options) *Analyzer {
	app := &sys.App
	n := len(app.Acts)
	a := &Analyzer{sys: sys, opts: opts.withDefaults()}

	a.period = make([]units.Duration, n)
	a.deadline = make([]units.Duration, n)
	a.capD = make([]units.Duration, n)
	f := a.opts.DivergenceFactor
	for id := 0; id < n; id++ {
		a.period[id] = app.Period(model.ActID(id))
		a.deadline[id] = app.Deadline(model.ActID(id))
		a.capD[id] = units.Duration(int64(units.Max(a.deadline[id], a.period[id])) * int64(f))
	}

	// FPS priority runs: group per node, sort each run by descending
	// priority (ties by id), concatenate, and record per task the
	// subrange of strictly higher-priority predecessors in its run.
	i32 := make([]int32, 4*n)
	a.hpStart, a.hpEnd = i32[:n:n], i32[n:2*n:2*n]
	a.jStamp, a.winStamp = i32[2*n:3*n:3*n], i32[3*n:]
	byNode := make([][]model.ActID, sys.Platform.NumNodes)
	for _, id := range app.Tasks(int(model.FPS)) {
		nd := app.Act(id).Node
		if int(nd) >= len(byNode) {
			byNode = append(byNode, make([][]model.ActID, int(nd)+1-len(byNode))...)
		}
		byNode[nd] = append(byNode[nd], id)
	}
	for _, ids := range byNode {
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0; j-- {
				pi, pj := app.Act(ids[j]).Priority, app.Act(ids[j-1]).Priority
				if pi > pj || (pi == pj && ids[j] < ids[j-1]) {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				} else {
					break
				}
			}
		}
		start := int32(len(a.fpsOrder))
		for k, id := range ids {
			a.hpStart[id] = start
			a.hpEnd[id] = start + int32(k)
		}
		a.fpsOrder = append(a.fpsOrder, ids...)
	}

	dur := make([]units.Duration, 3*n)
	a.r, a.j, a.win = dur[:n:n], dur[n:2*n:2*n], dur[2*n:]
	flags := make([]bool, 2*n)
	a.has, a.winSat = flags[:n:n], flags[n:]

	a.dynMsgs = app.Messages(int(model.DYN))
	a.dynIdx = make([]int32, n)
	for i := range a.dynIdx {
		a.dynIdx[i] = -1
	}
	for di, m := range a.dynMsgs {
		a.dynIdx[m] = int32(di)
	}
	a.fids = make([]int, len(a.dynMsgs))
	a.sizeMS = make([]int, len(a.dynMsgs))
	a.largestMS = make([]int, len(byNode))
	a.ar.envs = make([]flatEnv, len(a.dynMsgs))
	return a
}

// Reset rebinds the analyzer to a new configuration and schedule table,
// keeping every cache that provably stays valid:
//
//   - system-derived state (priority runs, topological orders, dense
//     per-activity facts) always survives;
//   - the DYN interference arena survives when the FrameID assignment
//     and the minislot length are unchanged — so candidates differing
//     only in NumMinislots (the sweep grids) or in the static segment
//     reuse it untouched;
//   - availability functions live on the table itself (schedule.Table
//     memoises them per node and invalidates on mutation), so they
//     follow the table through any rebinding;
//   - the per-activity response windows never survive: Run clears
//     their change stamps before the fixpoint starts, so a window
//     computed under one (configuration, table) pair — or under an
//     earlier state of a table the global scheduler is still filling —
//     is never reused.
//
// Invalidation compares value snapshots, not pointer identity, so
// mutating a configuration in place and Resetting it again is safe;
// only mutating it while a Run is in progress is not.
func (a *Analyzer) Reset(cfg *flexray.Config, table *schedule.Table) {
	sig := a.envSignature(cfg, a.envSigScratch[:0])
	if !slices.Equal(sig, a.envSig) {
		a.rebindEnvs(cfg, sig)
	}
	// Swap the buffers: sig becomes the bound signature, the old one
	// the next scratch.
	a.envSig, a.envSigScratch = sig, a.envSig
	a.cfg = cfg
	a.table = table
}

// rebindEnvs invalidates the interference arena and re-derives the
// signature-dependent dense facts (FrameIDs, frame sizes, per-node
// largest frames). The slabs keep their backing arrays, so a FrameID
// move (the SA neighbourhood) rebuilds environments without allocating.
func (a *Analyzer) rebindEnvs(cfg *flexray.Config, sig []int64) {
	a.ar.invalidate()
	for i := range a.dynMsgs {
		a.fids[i] = int(sig[2+i])
	}
	for i := range a.largestMS {
		a.largestMS[i] = 0
	}
	if cfg.MinislotLen <= 0 {
		for i := range a.sizeMS {
			a.sizeMS[i] = 0
		}
		return
	}
	app := &a.sys.App
	for i, m := range a.dynMsgs {
		a.sizeMS[i] = cfg.SizeInMinislots(app.Act(m).C)
	}
	for m := range cfg.FrameID {
		act := app.Act(m)
		if s := cfg.SizeInMinislots(act.C); int(act.Node) < len(a.largestMS) && s > a.largestMS[act.Node] {
			a.largestMS[act.Node] = s
		}
	}
}

// envSignature appends the inputs the cached DYN interference
// environments depend on — the minislot length and the FrameID
// assignment (read in the deterministic dynMsgs order; the entry count
// catches assignments to anything else) — to buf. The grouping and the
// extra-minislot sizes depend on nothing further: the per-cycle need is
// recomputed on every query.
func (a *Analyzer) envSignature(cfg *flexray.Config, buf []int64) []int64 {
	buf = append(buf, int64(cfg.MinislotLen), int64(len(cfg.FrameID)))
	for _, m := range a.dynMsgs {
		fid, ok := cfg.FrameID[m]
		if !ok {
			fid = -1
		}
		buf = append(buf, int64(fid))
	}
	return buf
}

// topoOrder returns the cached topological order of graph g.
func (a *Analyzer) topoOrder(g int) ([]model.ActID, error) {
	if a.topoDone == nil {
		n := len(a.sys.App.Graphs)
		a.topo = make([][]model.ActID, n)
		a.topoErr = make([]error, n)
		a.topoDone = make([]bool, n)
	}
	if !a.topoDone[g] {
		a.topo[g], a.topoErr[g] = a.sys.App.TopoOrder(g)
		a.topoDone[g] = true
	}
	return a.topo[g], a.topoErr[g]
}

func (a *Analyzer) availability(n model.NodeID) *schedule.Availability {
	return a.table.Availability(n)
}

// Interferers returns the activities whose jitter enters id's response
// window under the bound configuration: for an FPS task its
// higher-priority same-node tasks (ties broken by id), for a DYN message
// with a FrameID its hp(m) followed by its lf(m) items. Anything else
// has none. The ids come from the slabs windowValid and dynWindowValid
// check; a DYN environment Run has not needed yet is built here.
func (a *Analyzer) Interferers(id model.ActID) []model.ActID {
	di := a.dynIdx[id]
	if di < 0 {
		return slices.Clone(a.fpsOrder[a.hpStart[id]:a.hpEnd[id]])
	}
	if a.fids[di] < 0 {
		return nil
	}
	env := &a.ar.envs[di]
	if !env.built {
		env = a.buildEnv(int(di), a.sys.App.Act(id), a.fids[di])
	}
	out := slices.Clone(a.ar.hp[env.hpLo:env.hpHi])
	for _, it := range a.ar.lf[env.lfLo:env.lfHi] {
		out = append(out, it.id)
	}
	return out
}

// Run performs the holistic analysis: response times of TT activities
// come from the schedule table; ET activities are analysed iteratively
// with jitter propagation along the precedence edges until a fixpoint
// (Section 5: "the interference from the SCS activities" is part of
// both the FPS and the DYN analysis). The iteration state lives in the
// analyzer's dense r/j arrays; the Result's response map is
// materialised once at the end, and the jitters stay readable through
// Jitter. An activity's response window is recomputed only when an
// interferer's jitter changed since the window was last computed; its
// own jitter enters only in the final sum, so the cached window gives
// the same response a recomputation would.
func (a *Analyzer) Run() *Result {
	app := &a.sys.App
	res := &Result{Converged: true}
	clear(a.r)
	clear(a.j)
	clear(a.has)
	clear(a.jStamp)
	clear(a.winStamp)
	a.step = 0

	// Static part: schedule-table derived responses.
	for i := range app.Acts {
		act := &app.Acts[i]
		if !act.IsTT() {
			continue
		}
		a.r[act.ID] = a.tableResponse(act)
		a.has[act.ID] = true
	}

	// Event-triggered part: fixpoint over jitters.
	maxIter := a.opts.MaxOuterIter
	for iter := 0; ; iter++ {
		changed := false
		for g := range app.Graphs {
			order, err := a.topoOrder(g)
			if err != nil {
				// Validation rejects cyclic graphs; treat as
				// unschedulable rather than panicking.
				a.emit(res)
				res.Schedulable = false
				res.Cost = 1e18
				return res
			}
			for _, id := range order {
				act := app.Act(id)
				if act.IsTT() {
					continue
				}
				j := a.releaseJitter(act)
				var r units.Duration
				if act.IsTask() {
					r = a.fpsResponse(act, j)
				} else {
					r = a.dynResponse(act, j)
				}
				if a.j[id] != j {
					a.jStamp[id] = a.nextStep()
				}
				if a.j[id] != j || a.r[id] != r {
					a.j[id] = j
					a.r[id] = r
					a.has[id] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter >= maxIter {
			res.Converged = false
			break
		}
	}

	a.finish(res)
	return res
}

// nextStep advances the change-stamp clock of the window cache. Should
// it ever reach the int32 limit, every stamp is cleared instead, which
// only forces the windows to be recomputed.
func (a *Analyzer) nextStep() int32 {
	if a.step == math.MaxInt32 {
		clear(a.jStamp)
		clear(a.winStamp)
		a.step = 0
	}
	a.step++
	return a.step
}

// windowValid reports whether id's cached window was computed in this
// Run after the last jitter change of every activity in interferers.
func (a *Analyzer) windowValid(id model.ActID, interferers []model.ActID) bool {
	at := a.winStamp[id]
	if at == 0 {
		return false
	}
	for _, h := range interferers {
		if a.jStamp[h] > at {
			return false
		}
	}
	return true
}

// releaseJitter computes the release jitter of an ET activity: the
// worst-case completion of its predecessors (their response time),
// measured from the graph release, plus its own static release offset.
// This is the Jm of Eq. (2) "inherited from the sender task".
func (a *Analyzer) releaseJitter(act *model.Activity) units.Duration {
	j := act.Release
	for _, p := range act.Preds {
		if a.has[p] && a.r[p] > j {
			j = a.r[p]
		}
	}
	return j
}

// tableResponse derives the worst response time of an SCS task or ST
// message over all its instances in the table.
func (a *Analyzer) tableResponse(act *model.Activity) units.Duration {
	period := a.period[act.ID]
	var worst units.Duration
	if act.IsTask() {
		for _, i := range a.table.TaskEntryIndices(act.ID) {
			e := &a.table.Tasks[i]
			release := units.Time(int64(period) * int64(e.Instance))
			if d := units.Duration(e.End - release); d > worst {
				worst = d
			}
		}
	} else {
		for _, i := range a.table.MsgEntryIndices(act.ID) {
			e := &a.table.Msgs[i]
			release := units.Time(int64(period) * int64(e.Instance))
			if d := units.Duration(e.Delivery - release); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// emit materialises the dense response times into Result.R. Only
// activities that were actually written appear, mirroring the
// incremental map inserts the fixpoint used to perform.
func (a *Analyzer) emit(res *Result) {
	app := &a.sys.App
	res.R = make(map[model.ActID]units.Duration, len(app.Acts))
	for i := range app.Acts {
		if id := app.Acts[i].ID; a.has[id] {
			res.R[id] = a.r[id]
		}
	}
}

// Jitter returns the release jitter the last Run used for activity id
// (Section 5.1): the latest worst-case completion of its predecessors,
// or its own release offset if that is later — for a DYN message the
// Jm of Eq. (2). It is 0 for SCS tasks and ST messages, whose responses
// come from the schedule table. Call it after Run and before the next
// Reset.
func (a *Analyzer) Jitter(id model.ActID) units.Duration {
	return a.j[id]
}

// finish computes deadlines, violations and the cost function (Eq. 5).
func (a *Analyzer) finish(res *Result) {
	app := &a.sys.App
	a.emit(res)
	var f1, f2 float64
	for i := range app.Acts {
		act := &app.Acts[i]
		if !a.has[act.ID] {
			continue
		}
		r := a.r[act.ID]
		d := a.deadline[act.ID]
		diff := float64(r-d) / float64(units.Microsecond)
		if r > d {
			f1 += diff
			res.Violations = append(res.Violations, act.ID)
		}
		f2 += diff
	}
	if !res.Converged {
		// A non-converged fixpoint means some window saturated;
		// the saturation is already reflected in f1.
		res.Schedulable = false
	} else {
		res.Schedulable = len(res.Violations) == 0
	}
	if f1 > 0 {
		res.Cost = f1
	} else {
		res.Cost = f2
	}
}
