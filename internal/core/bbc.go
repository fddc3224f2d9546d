package core

import (
	"sort"

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

	// Lines 5-12: sweep the dynamic segment length over the grid,
	// keeping the cheapest configuration: OBC-EE's exhaustive inner
	// loop. Phase granularity wraps the sweep in one span; the
	// per-candidate path stays untouched.
	var phase *obs.Span
	if opts.Span.Phases() {
		phase = opts.Span.StartChild("bbc.sweep")
	}
	best, bestRes, bestCost := exhaustiveDYN(e, cfg)
	phase.End()
	if best == nil {
		return nil, errNoDYNRoom
	}
	return e.finish(best, bestRes, bestCost), nil
}
