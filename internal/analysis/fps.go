package analysis

import (
	"repro/internal/model"
	"repro/internal/units"
)

// fpsResponse computes the worst-case response time of an FPS task
// measured from its graph release: release jitter + the longest busy
// window. FPS tasks execute only in the slack left by the static
// schedule (Section 2), so the busy window advances through the
// availability function of the node rather than through wall-clock
// time; interference comes from higher-priority FPS tasks on the same
// node, each with its own inherited jitter (ref [13]). The busy window
// depends on their jitters but not on the task's own, so it is cached
// for the Run until one of theirs changes.
func (a *Analyzer) fpsResponse(act *model.Activity, jitter units.Duration) units.Duration {
	id := act.ID
	if !a.windowValid(id, a.fpsOrder[a.hpStart[id]:a.hpEnd[id]]) {
		a.win[id] = a.fpsWindow(act)
		a.winStamp[id] = a.nextStep()
	}
	return units.SatAdd(jitter, a.win[id])
}

// fpsWindow computes the longest busy window of an FPS task without its
// own release jitter, reading the current jitters of its
// higher-priority interferers.
func (a *Analyzer) fpsWindow(act *model.Activity) units.Duration {
	av := a.availability(act.Node)
	hp := a.fpsOrder[a.hpStart[act.ID]:a.hpEnd[act.ID]]
	bound := a.capD[act.ID]

	// The critical instant against the static schedule is unknown, so
	// the response is maximised over the busy-interval boundaries of
	// one table period (plus phase 0).
	var worst units.Duration
	for _, phi := range av.BusyBoundaries() {
		w := a.busyWindow(act, hp, phi, bound)
		if w > worst {
			worst = w
		}
		if worst >= bound {
			break
		}
	}
	return worst
}

// busyWindow iterates the classic response-time recurrence
//
//	w = C + sum_j ceil((w + J_j)/T_j) * C_j
//
// except that demand is converted to completion instants through the
// SCS availability function: the window ends when the node has supplied
// `demand` units of slack since the critical instant phi. Jitters and
// periods come from the analyzer's dense per-activity arrays, so the
// inner loop is pure slice indexing.
func (a *Analyzer) busyWindow(act *model.Activity, hp []model.ActID, phi units.Time, bound units.Duration) units.Duration {
	app := &a.sys.App
	av := a.availability(act.Node)

	w := act.C // first guess: execution with no interference
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
