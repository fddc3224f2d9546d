package analysis

import (
	"repro/internal/model"
	"repro/internal/schedule"
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
//
// The critical instant against the static schedule is unknown, so the
// window is maximised over the phases of BusyBoundaries. Two arguments
// cut that work without changing the maximum; both rest only on the
// recurrence F_φ(w) = (completion of demand(w) released at φ) - φ being
// monotone in w and F_φ(w) >= C, so that iterating from C climbs to
// F_φ's least fixpoint:
//   - Phase 0 is skipped when the node has a reservation: supply from 0
//     dominates supply from the first busy start (see BusyBoundaries),
//     so F_0 <= F_s0 pointwise and F_0's least fixpoint is no larger.
//   - A phase whose recurrence maps the running maximum `worst` to at
//     most `worst` is skipped: from C <= F_φ(worst) <= worst, every
//     iterate stays <= worst, so its window cannot raise the maximum.
//
// The 1000-step cap of busyWindow, which answers `bound`, applies to
// the phases iterated; a skipped phase cannot reach it. No recurrence
// has come near it: the analysis tests, the quick campaign, Fig. 9 and
// the cruise case study take at most 9 steps per phase.
func (a *Analyzer) fpsWindow(act *model.Activity) units.Duration {
	av := a.availability(act.Node)
	hp := a.fpsOrder[a.hpStart[act.ID]:a.hpEnd[act.ID]]
	bound := a.capD[act.ID]

	phases := len(av.BusyBoundaries())
	first := 0
	if phases > 1 {
		first = 1 // phase 0 is dominated by the first busy start
	}
	var worst units.Duration
	for i := first; i < phases; i++ {
		if worst > 0 && a.fpsStep(act, hp, av, i, worst) <= worst {
			continue // a post-fixpoint of F_φ: the window is <= worst
		}
		w := a.busyWindow(act, hp, av, i, bound)
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
// `demand` units of slack since the critical instant, phase i of
// av.BusyBoundaries().
func (a *Analyzer) busyWindow(act *model.Activity, hp []model.ActID, av *schedule.Availability, i int, bound units.Duration) units.Duration {
	w := act.C // first guess: execution with no interference
	for iter := 0; iter < 1000; iter++ {
		next := a.fpsStep(act, hp, av, i, w)
		if next >= units.Infinite || next > bound {
			return bound
		}
		if next <= w {
			return w
		}
		w = next
	}
	return bound
}

// fpsStep evaluates the recurrence once: the length of the window,
// from phase i of av.BusyBoundaries(), in which the node supplies the
// demand released within a window of length w. Jitters and periods
// come from the analyzer's dense per-activity arrays, so the loop is
// pure slice indexing. It returns Infinite when the supply saturates.
func (a *Analyzer) fpsStep(act *model.Activity, hp []model.ActID, av *schedule.Availability, i int, w units.Duration) units.Duration {
	app := &a.sys.App
	demand := act.C
	for _, h := range hp {
		n := units.CeilDiv(int64(w)+int64(a.j[h]), int64(a.period[h]))
		demand = units.SatAdd(demand, units.Duration(n)*app.Acts[h].C)
	}
	end := av.AdvanceFromBoundary(i, demand)
	if units.Duration(end) >= units.Infinite {
		return units.Infinite
	}
	return units.Duration(end - av.BusyBoundaries()[i])
}
