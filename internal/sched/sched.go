// Package sched implements the global scheduling algorithm of Fig. 2:
// a list scheduler that builds the static schedule table (start times
// for SCS tasks, slot assignments for ST messages) over the application
// hyper-period, ordering the ready list by a modified critical-path
// metric (ref [12]) and — optionally — placing each SCS task where the
// holistic analysis reports the least damage to FPS tasks and DYN
// messages (schedule_TT_task, Fig. 2 lines 10-12).
//
// The scheduler is split in two: a Plan holds everything that depends
// only on the system (the TT instances of the hyper-period, their
// releases, critical-path priorities and precedence), computed once,
// and Plan.BuildTable runs the per-configuration list-scheduling loop
// over those arrays.
package sched

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

// Options tune the scheduler.
type Options struct {
	// PlacementCandidates is the number of alternative start times
	// evaluated for each SCS task. 1 means plain first-fit (no
	// holistic evaluation); larger values implement Fig. 2 line 11
	// by running the analysis for each candidate gap and keeping the
	// cheapest. The paper's approach corresponds to values > 1. Every
	// optimiser, experiment and service path uses DefaultOptions' 1;
	// only tests set larger values.
	PlacementCandidates int
	// Analysis options used for candidate evaluation and the final
	// run.
	Analysis analysis.Options
}

// DefaultOptions returns first-fit placement with default analysis.
func DefaultOptions() Options {
	return Options{PlacementCandidates: 1, Analysis: analysis.DefaultOptions()}
}

// Build runs the global scheduling algorithm for the given bus
// configuration: it constructs the static schedule table for every
// instance of every TT activity inside the hyper-period and then runs
// the holistic analysis once over the completed table. Scheduling
// failures (an ST message that finds no slot) are reported as an
// error; an unschedulable-but-constructible system is NOT an error —
// the cost function of the returned result captures it.
func Build(sys *model.System, cfg *flexray.Config, opts Options) (*schedule.Table, *analysis.Result, error) {
	table, err := BuildTable(sys, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	res := analysis.New(sys, cfg, table, opts.Analysis).Run()
	return table, res, nil
}

// BuildTable runs the table-construction part of the global scheduling
// algorithm without the final holistic analysis, through a single-use
// Plan, so the caller owns the returned table. Callers that build many
// tables for one system (core.Session, and through it the campaign
// engine workers) keep a Plan instead; Build is BuildTable plus one
// fresh analysis.
func BuildTable(sys *model.System, cfg *flexray.Config, opts Options) (*schedule.Table, error) {
	return NewPlan(sys).BuildTable(cfg, opts)
}

// planNode is one instance of a TT activity inside the hyper-period:
// the system-derived half of a ready-list entry.
type planNode struct {
	act     model.ActID
	inst    int
	release units.Time     // graph instance release + own offset
	remain  units.Duration // critical-path priority
	preds   int32          // TT predecessor edges
	// succ[succLo:succHi] are the node's TT successor instances.
	succLo, succHi int32
}

// Plan is the compiled form of the list scheduler for one system. Its
// node arrays are immutable after NewPlan; the asap, pend and ready
// scratch and the schedule table are reset by every BuildTable, so one
// Plan serves any number of builds without allocating. A Plan is not
// safe for concurrent use.
type Plan struct {
	sys     *model.System
	horizon units.Duration
	// err is the construction failure (a cyclic task graph), reported
	// by every build.
	err error

	// nodes are the TT instances in enumeration order: graph, then
	// graph instance, then activity in graph order.
	nodes []planNode
	succ  []int32 // successor node indices, sliced by planNode
	roots []int32 // nodes without TT predecessors
	// tasks and msgs count the SCS task and ST message instances: the
	// entries every table receives.
	tasks, msgs int

	// Per-build scratch, indexed like nodes.
	asap  []units.Time
	pend  []int32
	ready []int32 // binary min-heap under before

	// table is the schedule table every build resets and fills.
	table *schedule.Table
}

// NewPlan compiles the list scheduler for one system.
func NewPlan(sys *model.System) *Plan {
	app := &sys.App
	p := &Plan{sys: sys, horizon: app.HyperPeriod()}

	// byAct[act][inst] is the node index of each instance, for the
	// successor lists below.
	byAct := make([][]int32, len(app.Acts))
	for g := range app.Graphs {
		tg := &app.Graphs[g]
		rp, err := app.RemainingPath(g)
		if err != nil {
			p.err = err
			return p
		}
		n := int64(p.horizon / tg.Period)
		if n == 0 {
			n = 1
		}
		for inst := int64(0); inst < n; inst++ {
			base := units.Time(int64(tg.Period) * inst)
			for _, id := range tg.Acts {
				a := app.Act(id)
				if !a.IsTT() {
					continue
				}
				var preds int32
				for _, q := range a.Preds {
					if app.Act(q).IsTT() {
						preds++
					}
				}
				if a.IsTask() {
					p.tasks++
				} else {
					p.msgs++
				}
				idx := int32(len(p.nodes))
				byAct[id] = append(byAct[id], idx)
				if preds == 0 {
					p.roots = append(p.roots, idx)
				}
				p.nodes = append(p.nodes, planNode{
					act:     id,
					inst:    int(inst),
					release: base.Add(a.Release),
					remain:  rp[id],
					preds:   preds,
				})
			}
		}
	}

	// A successor instance shares the instance index of its
	// predecessor; one the hyper-period does not contain is skipped.
	for i := range p.nodes {
		nd := &p.nodes[i]
		nd.succLo = int32(len(p.succ))
		for _, s := range app.Act(nd.act).Succs {
			if app.Act(s).IsTT() && nd.inst < len(byAct[s]) {
				p.succ = append(p.succ, byAct[s][nd.inst])
			}
		}
		nd.succHi = int32(len(p.succ))
	}

	p.asap = make([]units.Time, len(p.nodes))
	p.pend = make([]int32, len(p.nodes))
	p.ready = make([]int32, 0, len(p.nodes))
	return p
}

// BuildTable runs the list-scheduling loop of Fig. 2 for one bus
// configuration and returns the finished static schedule table. The
// Plan owns the table and rebuilds it in place: it stays valid only
// until the next BuildTable on the same Plan.
func (p *Plan) BuildTable(cfg *flexray.Config, opts Options) (*schedule.Table, error) {
	if p.err != nil {
		return nil, p.err
	}
	app := &p.sys.App
	if p.table == nil {
		p.table = schedule.New(cfg, p.horizon)
		p.table.Reserve(p.tasks, p.msgs)
	} else {
		p.table.Reset(cfg)
	}
	table := p.table

	for i := range p.nodes {
		p.asap[i] = p.nodes[i].release
		p.pend[i] = p.nodes[i].preds
	}
	p.ready = p.ready[:0]
	for _, i := range p.roots {
		p.push(i)
	}

	// One resettable analyzer serves every placement-candidate trial:
	// the configuration stays fixed across trials, so its DYN
	// interference environments are built once for the whole schedule
	// construction.
	var trialAn *analysis.Analyzer
	if opts.PlacementCandidates > 1 {
		trialAn = analysis.NewReusable(p.sys, opts.Analysis)
	}

	for len(p.ready) > 0 {
		// Select the ready activity with the greatest remaining
		// critical path (Fig. 2 line 2); earliest ASAP breaks ties,
		// then id for determinism.
		i := p.pop()
		nd := &p.nodes[i]
		a := app.Act(nd.act)

		var f units.Time
		if a.IsTask() {
			start, err := placeTask(cfg, table, trialAn, nd, a, p.asap[i], opts)
			if err != nil {
				return nil, err
			}
			f = start.Add(a.C)
		} else {
			e, err := table.PlaceMessage(app, nd.act, nd.inst, p.asap[i])
			if err != nil {
				return nil, fmt.Errorf("sched: %w", err)
			}
			f = e.Delivery
		}
		for _, s := range p.succ[nd.succLo:nd.succHi] {
			if f > p.asap[s] {
				p.asap[s] = f
			}
			p.pend[s]--
			if p.pend[s] == 0 {
				p.push(s)
			}
		}
	}
	return table, nil
}

// before is the ready-list order: greatest remaining critical path
// first, then earliest ASAP, then activity id and instance. It is a
// total order over distinct nodes, and a node's key is final once it
// is ready (its predecessors have all finished), so popping the heap
// minimum selects exactly the node a full sort would put first.
func (p *Plan) before(i, j int32) bool {
	a, b := &p.nodes[i], &p.nodes[j]
	if a.remain != b.remain {
		return a.remain > b.remain
	}
	if p.asap[i] != p.asap[j] {
		return p.asap[i] < p.asap[j]
	}
	if a.act != b.act {
		return a.act < b.act
	}
	return a.inst < b.inst
}

// push adds node i to the ready heap.
func (p *Plan) push(i int32) {
	h := append(p.ready, i)
	for c := len(h) - 1; c > 0; {
		parent := (c - 1) / 2
		if !p.before(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
	p.ready = h
}

// pop removes and returns the first node of the ready heap.
func (p *Plan) pop() int32 {
	h := p.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for c := 0; ; {
		m := 2*c + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && p.before(h[r], h[m]) {
			m = r
		}
		if !p.before(h[m], h[c]) {
			break
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
	p.ready = h
	return top
}

// placeTask implements schedule_TT_task: it finds candidate start
// times at or after the task's ASAP and keeps the one the holistic
// analysis likes best (or plain first-fit when only one candidate is
// requested). Candidate trials rebind the shared analyzer to each
// trial table; the configuration-derived analysis caches survive every
// rebind because cfg never changes within one build.
func placeTask(cfg *flexray.Config, table *schedule.Table, trialAn *analysis.Analyzer,
	nd *planNode, a *model.Activity, asap units.Time, opts Options) (units.Time, error) {

	k := opts.PlacementCandidates
	if k <= 1 {
		start := table.FirstGap(a.Node, asap, a.C)
		return start, table.PlaceTask(nd.act, nd.inst, a.Node, start, a.C)
	}

	cands := table.Gaps(a.Node, asap, a.C, k)
	if len(cands) == 0 {
		return 0, fmt.Errorf("sched: no gap for task %q on node %d", a.Name, a.Node)
	}
	bestIdx := 0
	bestCost := 0.0
	for i, start := range cands {
		trial := table.Clone()
		if err := trial.PlaceTask(nd.act, nd.inst, a.Node, start, a.C); err != nil {
			continue
		}
		trialAn.Reset(cfg, trial)
		res := trialAn.Run()
		if i == 0 || res.Cost < bestCost {
			bestIdx, bestCost = i, res.Cost
		}
	}
	start := cands[bestIdx]
	return start, table.PlaceTask(nd.act, nd.inst, a.Node, start, a.C)
}
