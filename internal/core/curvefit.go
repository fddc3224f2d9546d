package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
)

// The two constants of Fig. 8, at the paper's values.
const (
	// initialSupportPoints is the size of the initial support set.
	initialSupportPoints = 5
	// noImproveLimit (the paper's N_max) ends the refinement after
	// this many iterations without a schedulable solution or cost
	// improvement.
	noImproveLimit = 10
)

// curveFitDYN implements Determine_DYN_segment_length (Section 6.2.1,
// Fig. 8): instead of scheduling and analysing every possible dynamic
// segment size, it evaluates a small support set ("Points", initially
// initialSupportPoints sizes), interpolates the response time of every
// DYN message over the whole grid with Newton polynomials, picks the
// size with the best (interpolated or exact) cost, and refines the
// support set until a schedulable size is confirmed exactly or
// noImproveLimit iterations pass without improvement. Like
// exhaustiveDYN it takes ownership of cfg: every evaluated size is set
// on cfg, and the returned configuration is cfg set to the winner.
func curveFitDYN(e *evaluator, cfg *flexray.Config) (*flexray.Config, *analysis.Result, float64) {
	if len(cfg.FrameID) == 0 {
		cfg.NumMinislots = 0
		if cfg.Cycle() >= flexray.MaxCycle {
			return nil, nil, infeasibleCost * 2
		}
		res, cost := e.eval(cfg)
		return cfg, res, cost
	}

	minMS, maxMS := dynBounds(e.sys, cfg, cfg.MinislotLen)
	if maxMS < minMS {
		return nil, nil, infeasibleCost * 2
	}
	grid := dynGrid(minMS, maxMS, e.opts.DYNGridCap)

	cf := &curveFit{
		e:    e,
		cfg:  cfg,
		grid: grid,
		pts:  map[int]*evalPoint{},
		dyn:  e.sys.App.Messages(int(model.DYN)),
	}

	// Line 1: the initial support set — min, max and three evenly
	// spaced sizes (the paper used five points), evaluated in order
	// until the budget runs out. Phase granularity records the
	// support build and the refinement loop as two spans; the
	// per-point path stays untouched.
	phases := e.opts.Span.Phases()
	var support *obs.Span
	if phases {
		support = e.opts.Span.StartChild("cf.support")
	}
	for _, nMS := range dynGrid(minMS, maxMS, initialSupportPoints) { // lines 2-5
		if e.exhausted() {
			break
		}
		cf.addPoint(nMS)
	}
	if support != nil {
		support.SetInt("points", int64(len(cf.pts)))
		support.End()
	}
	if len(cf.pts) == 0 {
		return nil, nil, infeasibleCost * 2
	}

	if phases {
		refine := e.opts.Span.StartChild("cf.refine")
		defer func() {
			refine.SetInt("points", int64(len(cf.pts)))
			refine.End()
		}()
	}

	bestSoFar := math.Inf(1)
	noImprove := 0
	for {
		if e.exhausted() {
			return cf.bestExact()
		}
		nMS, cost, exact := cf.selectBest() // lines 6-11
		if nMS < 0 {
			return cf.bestExact()
		}
		switch {
		case cost <= 0 && exact: // line 12
			return cf.result(cf.pts[nMS])
		case cost <= 0: // lines 13-16
			p := cf.addPoint(nMS)
			if p != nil && p.res != nil && p.res.Schedulable { // line 14
				return cf.result(p)
			}
		default: // Costmin > 0
			if _, have := cf.pts[nMS]; !have {
				cf.addPoint(nMS) // line 17
			} else {
				// Lines 18-19: refine the interpolation. The best
				// interpolated-only size is evaluated exactly;
				// when the search stalls, bisecting the widest
				// support gap instead lets the heuristic discover
				// narrow feasibility dips the polynomial cannot
				// predict (the paper's "process is continued with
				// a more exact interpolation").
				alt := cf.bestInterpolatedOnly()
				if noImprove%2 == 1 || alt < 0 {
					if g := cf.widestGapMid(); g >= 0 {
						alt = g
					}
				}
				if alt < 0 {
					return cf.bestExact()
				}
				cf.addPoint(alt)
			}
		}
		// Termination condition (line 15/21): noImproveLimit
		// iterations without a schedulable solution and without cost
		// improvement.
		if ec := cf.bestExactCost(); ec < bestSoFar-1e-9 {
			bestSoFar = ec
			noImprove = 0
		} else {
			noImprove++
			if noImprove >= noImproveLimit {
				return cf.bestExact()
			}
		}
	}
}

// evalPoint is one exactly analysed support point of the curve fit.
type evalPoint struct {
	nMS  int
	x    float64 // DYNbus in µs
	res  *analysis.Result
	cost float64
	// rm[i] is the exact response (µs) of the i-th DYN message.
	rm []float64
	// Cost split: contributions of the non-DYN activities, needed to
	// rebuild the cost function around interpolated DYN responses.
	nonDYNf1, nonDYNf2 float64
}

// curveFit is the state of one Fig. 8 run. cfg is the static
// configuration it sizes, owned by the run: every support point sets
// its NumMinislots and is evaluated through it, and the returned
// configuration is cfg set to the winning size.
type curveFit struct {
	e    *evaluator
	cfg  *flexray.Config
	grid []int
	pts  map[int]*evalPoint
	dyn  []model.ActID
	// interpolated[nMS] caches the last interpolation pass.
	interpolated map[int]float64

	// Storage every selectBest call refills in place, so the
	// interpolation allocates only while its support set grows past
	// the storage's capacity: sorted backs sortedPoints, sup and xs are
	// the support points and their abscissae, ys the ordinates of the
	// fit being built, polys one Newton polynomial per DYN message.
	sorted     []*evalPoint
	sup        []*evalPoint
	xs, ys     []float64
	polys      []interp.Newton
	lin1, lin2 interp.Linear
}

// addPoint evaluates one dynamic-segment size exactly and stores it in
// the support set.
func (cf *curveFit) addPoint(nMS int) *evalPoint {
	if p, ok := cf.pts[nMS]; ok {
		return p
	}
	cf.cfg.NumMinislots = nMS
	if cf.cfg.Cycle() >= flexray.MaxCycle {
		cf.pts[nMS] = &evalPoint{nMS: nMS, x: cf.x(nMS), cost: infeasibleCost}
		return cf.pts[nMS]
	}
	res, cost := cf.e.eval(cf.cfg)
	return cf.storePoint(nMS, res, cost)
}

// storePoint builds the support-set entry for one exactly evaluated
// size, splitting the cost into the DYN responses (the interpolation
// targets) and the non-DYN contributions. The non-DYN sums run in
// ActID order (the order R yields): float addition is not associative,
// so summing in any other order could change the interpolated costs.
func (cf *curveFit) storePoint(nMS int, res *analysis.Result, cost float64) *evalPoint {
	p := &evalPoint{nMS: nMS, x: cf.x(nMS), res: res, cost: cost}
	if res != nil {
		app := &cf.e.sys.App
		p.rm = make([]float64, len(cf.dyn))
		for i, m := range cf.dyn {
			r, _ := res.Response(m)
			p.rm[i] = r.Us()
		}
		for id, r := range res.R {
			if act := app.Act(id); act.IsMessage() && act.Class == model.DYN {
				continue
			}
			diff := (r - app.Deadline(id)).Us()
			if diff > 0 {
				p.nonDYNf1 += diff
			}
			p.nonDYNf2 += diff
		}
	}
	cf.pts[nMS] = p
	return p
}

func (cf *curveFit) x(nMS int) float64 {
	return (units.Duration(nMS) * cf.cfg.MinislotLen).Us()
}

// selectBest interpolates the whole grid (lines 6-10) and returns the
// size with the lowest stored cost (line 11) along with whether that
// cost is exact (the size is in Points). It returns nMS < 0 when there
// is nothing sensible to select.
func (cf *curveFit) selectBest() (nMS int, cost float64, exact bool) {
	// Newton polynomial per DYN message over the support points.
	cf.sup, cf.xs = cf.sup[:0], cf.xs[:0]
	for _, p := range cf.sortedPoints() {
		if p.res == nil {
			continue // structurally infeasible size: not a support point
		}
		cf.sup = append(cf.sup, p)
		cf.xs = append(cf.xs, p.x)
	}
	if len(cf.sup) == 0 {
		return -1, 0, false
	}
	if cf.polys == nil {
		cf.polys = make([]interp.Newton, len(cf.dyn))
	}
	for mi := range cf.dyn {
		cf.ys = cf.ys[:0]
		for _, p := range cf.sup {
			cf.ys = append(cf.ys, p.rm[mi])
		}
		if err := cf.polys[mi].Fit(cf.xs, cf.ys); err != nil {
			return -1, 0, false
		}
	}
	cf.ys = cf.ys[:0]
	for _, p := range cf.sup {
		cf.ys = append(cf.ys, p.nonDYNf1)
	}
	err1 := cf.lin1.Fit(cf.xs, cf.ys)
	cf.ys = cf.ys[:0]
	for _, p := range cf.sup {
		cf.ys = append(cf.ys, p.nonDYNf2)
	}
	err2 := cf.lin2.Fit(cf.xs, cf.ys)
	if err1 != nil || err2 != nil {
		return -1, 0, false
	}

	app := &cf.e.sys.App
	if cf.interpolated == nil {
		cf.interpolated = make(map[int]float64, len(cf.grid))
	}
	clear(cf.interpolated)
	bestN, bestC, bestExact := -1, math.Inf(1), false
	consider := func(n int, c float64, ex bool) {
		if c < bestC || (c == bestC && ex && !bestExact) {
			bestN, bestC, bestExact = n, c, ex
		}
	}
	for _, n := range cf.grid {
		if p, ok := cf.pts[n]; ok {
			consider(n, p.cost, true) // exact cost stored at line 4
			continue
		}
		x := cf.x(n)
		f1 := cf.lin1.Eval(x)
		f2 := cf.lin2.Eval(x)
		for mi, m := range cf.dyn {
			r := cf.polys[mi].Eval(x)
			if min := app.Act(m).C.Us(); r < min {
				r = min // a response below the bus time is impossible
			}
			d := app.Deadline(m).Us()
			diff := r - d
			if diff > 0 {
				f1 += diff
			}
			f2 += diff
		}
		var c float64
		if f1 > 0 {
			c = f1
		} else {
			c = f2
		}
		cf.interpolated[n] = c
		consider(n, c, false)
	}
	return bestN, bestC, bestExact
}

// bestInterpolatedOnly returns the interpolated-only size with minimal
// cost (Fig. 8 line 18), or -1 when every grid size is already exact.
func (cf *curveFit) bestInterpolatedOnly() int {
	best, bestC := -1, math.Inf(1)
	for n, c := range cf.interpolated {
		if _, have := cf.pts[n]; have {
			continue
		}
		if c < bestC || (c == bestC && n < best) {
			best, bestC = n, c
		}
	}
	return best
}

// widestGapMid returns the grid size closest to the midpoint of the
// widest gap between adjacent support points, or -1 when every grid
// size is already supported.
func (cf *curveFit) widestGapMid() int {
	pts := cf.sortedPoints()
	if len(pts) < 2 {
		return -1
	}
	bestGap, mid := 0, -1
	for i := 1; i < len(pts); i++ {
		if g := pts[i].nMS - pts[i-1].nMS; g > bestGap {
			bestGap = g
			mid = pts[i-1].nMS + g/2
		}
	}
	if mid < 0 {
		return -1
	}
	// Snap to the nearest unsupported grid size.
	best, bestD := -1, 1<<62
	for _, n := range cf.grid {
		if _, have := cf.pts[n]; have {
			continue
		}
		d := n - mid
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// sortedPoints returns the support set in nMS order, in storage that
// the next call reuses.
func (cf *curveFit) sortedPoints() []*evalPoint {
	cf.sorted = cf.sorted[:0]
	for _, p := range cf.pts {
		cf.sorted = append(cf.sorted, p)
	}
	slices.SortFunc(cf.sorted, func(a, b *evalPoint) int { return cmp.Compare(a.nMS, b.nMS) })
	return cf.sorted
}

// bestExactCost returns the lowest exactly evaluated cost so far.
func (cf *curveFit) bestExactCost() float64 {
	best := math.Inf(1)
	for _, p := range cf.pts {
		if p.cost < best {
			best = p.cost
		}
	}
	return best
}

// bestExact returns the best exactly evaluated configuration (the
// "return infeasible DYNbus" exits of Fig. 8 still report the best
// candidate so the outer loop can keep a global incumbent). Ties are
// broken towards the smallest segment so the pick never depends on map
// iteration order.
func (cf *curveFit) bestExact() (*flexray.Config, *analysis.Result, float64) {
	var best *evalPoint
	for _, p := range cf.sortedPoints() {
		if best == nil || p.cost < best.cost {
			best = p
		}
	}
	if best == nil {
		return nil, nil, infeasibleCost * 2
	}
	return cf.result(best)
}

// result returns a support point as the run's outcome: the run's
// configuration set to the point's size, its analysis and its cost.
func (cf *curveFit) result(p *evalPoint) (*flexray.Config, *analysis.Result, float64) {
	cf.cfg.NumMinislots = p.nMS
	return cf.cfg, p.res, p.cost
}
