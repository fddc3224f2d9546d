package core

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
)

// dynSizer searches the dynamic-segment length for one fixed static
// configuration; it returns the best configuration found, its analysis
// and cost. OBCEE plugs in the exhaustive sweep, OBCCF the
// curve-fitting heuristic of Fig. 8.
type dynSizer func(e *evaluator, cfg *flexray.Config) (*flexray.Config, *analysis.Result, float64)

// OBCEE runs the Optimised Bus Configuration heuristic (Section 6.2,
// Fig. 6) with an exhaustive exploration of the dynamic segment sizes
// for every static-segment alternative.
func OBCEE(sys *model.System, opts Options) (*Result, error) {
	return obc(sys, opts, "OBC-EE", exhaustiveDYN)
}

// OBCCF runs the OBC heuristic with the curve-fitting based selection
// of the dynamic segment length (Section 6.2.1, Fig. 8).
func OBCCF(sys *model.System, opts Options) (*Result, error) {
	return obc(sys, opts, "OBC-CF", curveFitDYN)
}

// obc is the shared outer exploration (Fig. 6): the number of static
// slots grows from the BBC minimum, the slot length from the largest ST
// message in 20·gdBit increments; slots are assigned by message-count
// quota; the inner sizer picks the dynamic segment. The first feasible
// configuration ends the optimisation (line 7); otherwise the best cost
// seen is returned.
func obc(sys *model.System, opts Options, alg string, size dynSizer) (*Result, error) {
	opts = opts.withDefaults()
	e := newEvaluator(sys, opts, alg)

	if err := checkSTFits(sys, opts.Params); err != nil {
		return nil, err
	}

	fids, err := AssignFrameIDs(sys) // line 1
	if err != nil {
		return nil, err
	}

	senders := sys.App.STSenderNodes()
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	minSlots := len(senders)
	maxSlots := minSlots * opts.SlotCountCap
	if minSlots == 0 {
		maxSlots = 0 // no static traffic: single degenerate iteration
	}
	if maxSlots > flexray.MaxStaticSlots {
		maxSlots = flexray.MaxStaticSlots
	}
	slotLenMin := minStaticSlotLen(sys, opts.Params)
	slotLenMax := opts.Params.MaxStaticSlotLen()
	step := opts.Params.SlotStep() // 20 gdBit (line 4)

	var (
		best     *flexray.Config
		bestRes  *analysis.Result
		bestCost = infeasibleCost * 2
	)

	// Seed the incumbent with the minimal (BBC-shaped) configuration,
	// swept exhaustively: the OBC exploration starts from the BBC
	// minimum, so neither variant can ever return a configuration
	// worse than BBC's. For OBC-EE this is simply its first loop
	// iteration hoisted out; for OBC-CF it replaces one curve-fit
	// pass with the exact sweep.
	if minSlots > 0 || len(fids) > 0 {
		cfg0 := opts.newConfig(fids)
		cfg0.NumStaticSlots = minSlots
		cfg0.StaticSlotLen = slotLenMin
		cfg0.StaticSlotOwner = assignSlotsByQuota(sys, minSlots)
		if cfg0.STBus() < flexray.MaxCycle {
			var seed *obs.Span
			if opts.Span.Phases() {
				seed = opts.Span.StartChild("obc.seed")
			}
			cand, res, cost := exhaustiveDYN(e, cfg0)
			seed.End()
			if cand != nil {
				best, bestRes, bestCost = cand, res, cost
				if cost <= 0 {
					return e.finish(cand, res, cost), nil
				}
			}
		}
	}

	// Phase granularity wraps the whole static-segment exploration in
	// one span; the feasible-stop returns inside the loop end it via
	// the defer. The per-candidate path stays untouched.
	var explore *obs.Span
	staticConfigs := 0
	if opts.Span.Phases() {
		explore = opts.Span.StartChild("obc.explore")
		defer func() {
			explore.SetInt("static_configs", int64(staticConfigs))
			explore.End()
		}()
	}

	for numSlots := minSlots; numSlots <= maxSlots && !e.exhausted(); numSlots++ { // lines 2-3
		for s := 0; s < opts.SlotLenSteps && !e.exhausted(); s++ { // line 4
			if numSlots == minSlots && s == 0 {
				continue // hoisted above as the incumbent seed
			}
			slotLen := slotLenMin + units.Duration(s)*step
			if slotLen > slotLenMax {
				break
			}
			cfg := opts.newConfig(fids)
			cfg.NumStaticSlots = numSlots
			cfg.StaticSlotLen = slotLen
			cfg.StaticSlotOwner = assignSlotsByQuota(sys, numSlots) // line 5
			if cfg.STBus() >= flexray.MaxCycle {
				break // growing further only worsens the cycle limit
			}
			staticConfigs++
			cand, res, cost := size(e, cfg) // line 6
			if cand != nil && cost < bestCost {
				best, bestRes, bestCost = cand, res, cost
			}
			if cost <= 0 && cand != nil { // line 7: feasible, stop
				return e.finish(cand, res, cost), nil
			}
		}
		if numSlots == maxSlots && minSlots == 0 {
			break
		}
	}
	if minSlots == 0 && maxSlots == 0 && best == nil {
		// Degenerate pass for systems without ST traffic.
		cfg := opts.newConfig(fids)
		cand, res, cost := size(e, cfg)
		if cand != nil {
			best, bestRes, bestCost = cand, res, cost
		}
	}
	if best == nil {
		return nil, errNoDYNRoom
	}
	return e.finish(best, bestRes, bestCost), nil
}

// exhaustiveDYN evaluates every dynamic segment size on the sweep grid
// and returns the cheapest (the OBCEE inner loop). The grid points are
// independent, so they are evaluated as one batch: the campaign engine
// fans the batch across its worker pool, while the grid-order reduction
// keeps the selection identical to the serial loop.
func exhaustiveDYN(e *evaluator, cfg *flexray.Config) (*flexray.Config, *analysis.Result, float64) {
	var cands []*flexray.Config
	add := func(nMS int) {
		cand := cfg.Clone()
		cand.NumMinislots = nMS
		if cand.Cycle() >= flexray.MaxCycle {
			return
		}
		cands = append(cands, cand)
	}
	if len(cfg.FrameID) == 0 {
		add(0)
	} else {
		minMS, maxMS := dynBounds(e.sys, cfg, cfg.MinislotLen)
		if maxMS < minMS {
			return nil, nil, infeasibleCost * 2
		}
		for _, nMS := range dynGrid(minMS, maxMS, e.opts.DYNGridCap) {
			add(nMS)
		}
	}
	var (
		best     *flexray.Config
		bestRes  *analysis.Result
		bestCost = infeasibleCost * 2
	)
	ress, costs, n := e.evalBatch(cands)
	for i := 0; i < n; i++ {
		if costs[i] < bestCost {
			best, bestRes, bestCost = cands[i], ress[i], costs[i]
		}
	}
	return best, bestRes, bestCost
}
