package core

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
)

// BBC computes the Basic Bus Configuration (Section 6.1, Fig. 5): the
// minimal static segment — one slot per ST-sending node, each slot just
// large enough for the biggest ST message — with criticality-ordered
// unique FrameIDs, sweeping only the dynamic segment length and keeping
// the configuration with the best cost function.
func BBC(sys *model.System, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	e := newEvaluator(sys, opts, "BBC")

	if err := checkSTFits(sys, opts.Params); err != nil {
		return nil, err
	}

	// Line 1: FrameID assignment by criticality.
	fids, err := AssignFrameIDs(sys)
	if err != nil {
		return nil, err
	}
	cfg := opts.newConfig(fids)

	// Lines 2-4: minimal static segment, round-robin assignment.
	senders := sys.App.STSenderNodes()
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	cfg.NumStaticSlots = len(senders)
	cfg.StaticSlotLen = minStaticSlotLen(sys, opts.Params)
	cfg.StaticSlotOwner = assignSlotsRoundRobin(senders, cfg.NumStaticSlots)

	// Lines 5-12: sweep the dynamic segment length. The grid points
	// are independent, so the sweep is evaluated as one batch (the
	// campaign engine fans it across its worker pool); the reduction
	// in grid order reproduces the serial loop exactly.
	var cands []*flexray.Config
	add := func(nMS int) {
		cand := cfg.Clone()
		cand.NumMinislots = nMS
		if cand.Cycle() >= flexray.MaxCycle { // line 7
			return
		}
		cands = append(cands, cand)
	}

	if len(fids) == 0 {
		// No dynamic traffic: a single evaluation with an empty DYN
		// segment.
		add(0)
	} else {
		minMS, maxMS := dynBounds(sys, cfg, opts.MinislotLen)
		if maxMS < minMS {
			return nil, errNoDYNRoom
		}
		for _, nMS := range dynGrid(minMS, maxMS, opts.DYNGridCap) {
			add(nMS)
		}
	}
	var (
		best     *flexray.Config
		bestRes  *analysis.Result
		bestCost = infeasibleCost * 2
	)
	// Phase granularity wraps the whole sweep batch in one span; the
	// per-candidate path stays untouched.
	var phase *obs.Span
	if opts.Span.Phases() {
		phase = opts.Span.StartChild("bbc.sweep")
		phase.SetInt("candidates", int64(len(cands)))
	}
	ress, costs, n := e.evalBatch(cands) // lines 8-9
	for i := 0; i < n; i++ {
		if costs[i] < bestCost { // line 10
			best, bestRes, bestCost = cands[i], ress[i], costs[i]
		}
	}
	phase.End()
	if best == nil {
		return nil, errNoDYNRoom
	}
	return e.finish(best, bestRes, bestCost), nil
}
