package analysis

import (
	"repro/internal/model"
	"repro/internal/units"
)

// GreedyFillForTest fills one environment built from per-group extras
// (each group sorted by extra descending, as buildEnv orders them) and
// budgets with greedyFill, then takes leftoverExtras. It returns the
// filled cycles, the leftover extras and the final budget rows, so the
// external reference test can compare them with the per-cycle fill.
func GreedyFillForTest(need int, extras [][]int, budgets [][]int64) (int64, int, [][]int64) {
	groups := make([][]lfItem, len(extras))
	for g, row := range extras {
		for i, e := range row {
			groups[g] = append(groups[g], lfItem{fid: g + 1, id: model.ActID(g*10 + i), extra: e})
		}
	}
	ar, env := testArena(need, groups, budgets)
	filled := ar.greedyFill(env)
	leftover := ar.leftoverExtras(env)
	out := make([][]int64, len(budgets))
	start := 0
	for g := range budgets {
		out[g] = append([]int64(nil), ar.budget[start:start+len(budgets[g])]...)
		start += len(budgets[g])
	}
	return filled, leftover, out
}

// RunFullRecomputeForTest is Run without the window cache: the jitter
// fixpoint recomputes every FPS busy window and every DYN Eq. (3)
// window on every pass. FPS windows come from fullFPSWindow, which
// iterates every phase, so TestRunMatchesFullRecompute and
// FuzzRunMatchesFullRecompute pin both the cache and fpsWindow's
// phase pruning.
func (a *Analyzer) RunFullRecomputeForTest() *Result {
	app := &a.sys.App
	res := &Result{Converged: true}
	clear(a.r)
	clear(a.j)
	clear(a.has)
	for i := range app.Acts {
		act := &app.Acts[i]
		if !act.IsTT() {
			continue
		}
		a.r[act.ID] = a.tableResponse(act)
		a.has[act.ID] = true
	}
	maxIter := a.opts.MaxOuterIter
	for iter := 0; ; iter++ {
		changed := false
		for g := range app.Graphs {
			order, err := a.topoOrder(g)
			if err != nil {
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
					r = units.SatAdd(j, a.fullFPSWindow(act))
				} else if d := a.dynWindow(act); d.sat {
					r = a.capD[id]
				} else {
					r = units.SatAdd(j, units.SatAdd(d.w, act.C))
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

// fullFPSWindow is fpsWindow without its pruning: it iterates the
// busy-window recurrence from C at every phase of BusyBoundaries,
// phase 0 included, through plain Advance, under the same bound and
// 1000-step cap, and returns the largest window.
func (a *Analyzer) fullFPSWindow(act *model.Activity) units.Duration {
	app := &a.sys.App
	av := a.availability(act.Node)
	hp := a.fpsOrder[a.hpStart[act.ID]:a.hpEnd[act.ID]]
	bound := a.capD[act.ID]
	window := func(phi units.Time) units.Duration {
		w := act.C
		for iter := 0; iter < 1000; iter++ {
			demand := act.C
			for _, h := range hp {
				n := units.CeilDiv(int64(w)+int64(a.j[h]), int64(a.period[h]))
				demand = units.SatAdd(demand, units.Duration(n)*app.Acts[h].C)
			}
			end := av.Advance(phi, demand)
			if units.Duration(end) >= units.Infinite {
				return bound
			}
			next := units.Duration(end - phi)
			if next > bound {
				return bound
			}
			if next <= w {
				return w
			}
			w = next
		}
		return bound
	}
	var worst units.Duration
	for _, phi := range av.BusyBoundaries() {
		worst = max(worst, window(phi))
	}
	return worst
}
