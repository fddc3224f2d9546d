package core

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
)

// SA explores the design space with simulated annealing (ref [8]); the
// paper uses it — with very long runs — as the near-optimal baseline of
// Fig. 9. The move set matches the paper's: number and size of static
// slots, size of the dynamic segment, assignment of static slots to
// nodes, and assignment of FrameIDs to messages.
func SA(sys *model.System, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	e := newEvaluator(sys, opts, "SA")
	rng := rand.New(rand.NewSource(opts.SASeed))

	if err := checkSTFits(sys, opts.Params); err != nil {
		return nil, err
	}

	// Start from the warm-start configuration when given, otherwise
	// from the BBC minimum: both are valid points of the space.
	fids, err := AssignFrameIDs(sys)
	if err != nil {
		return nil, err
	}
	senders := sys.App.STSenderNodes()
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	var cur *flexray.Config
	if opts.SAWarmStart != nil {
		cur = opts.SAWarmStart.Clone()
	} else {
		cur = opts.newConfig(fids)
		cur.NumStaticSlots = len(senders)
		cur.StaticSlotLen = minStaticSlotLen(sys, opts.Params)
		cur.StaticSlotOwner = assignSlotsRoundRobin(senders, cur.NumStaticSlots)
		if len(fids) > 0 {
			minMS, maxMS := dynBounds(sys, cur, opts.MinislotLen)
			if maxMS < minMS {
				return nil, errNoDYNRoom
			}
			cur.NumMinislots = (minMS + maxMS) / 2
		}
	}
	if cur.Cycle() >= flexray.MaxCycle {
		return nil, errNoDYNRoom
	}

	bestRes, curCost := e.eval(cur)
	best, bestCost := cur, curCost

	// Geometric cooling from an application-scaled temperature.
	temp := opts.SAInitTemp
	if temp <= 0 {
		temp = math.Max(math.Abs(curCost), 100)
	}
	cooling := opts.SACooling
	if cooling <= 0 {
		// Reach ~1e-3 of the initial temperature by the last
		// iteration.
		cooling = math.Pow(1e-3, 1/float64(opts.SAIterations))
	}

	// The walk is inherently candidate-at-a-time: each mutation starts
	// from the current state, which the accept/reject decision of the
	// previous evaluation just determined — so unlike the BBC/OBC sweep
	// grids there is no independent slice to hand to the batched
	// evaluation path.
	// Phase granularity wraps the whole anneal loop in one span — the
	// per-iteration path stays untouched.
	var phase *obs.Span
	if opts.Span.Phases() {
		phase = opts.Span.StartChild("sa.anneal")
	}
	accepts, iters := 0, 0
	for i := 0; i < opts.SAIterations && !e.exhausted(); i++ {
		iters++
		cand := mutate(sys, cur, rng, opts, senders)
		if cand == nil {
			temp *= cooling
			continue
		}
		if cand.Validate(opts.Params, sys) != nil {
			temp *= cooling
			continue
		}
		e.temp = temp // stamped on the candidate's convergence event
		res, cost := e.eval(cand)
		delta := cost - curCost
		accepted := delta < 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-9))
		if accepted {
			accepts++
			cur, curCost = cand, cost
			if cost < bestCost {
				best, bestRes, bestCost = cand, res, cost
			}
		}
		temp *= cooling
	}
	if phase != nil {
		phase.SetInt("iterations", int64(iters))
		phase.SetInt("accepts", int64(accepts))
		phase.End()
	}
	return e.finish(best, bestRes, bestCost), nil
}

// mutate applies one random move to a clone of cfg; nil means the move
// was structurally impossible (the caller just skips the iteration).
func mutate(sys *model.System, cfg *flexray.Config, rng *rand.Rand, opts Options, senders []model.NodeID) *flexray.Config {
	c := cfg.Clone()
	moves := []func() bool{
		// Grow/shrink the number of static slots.
		func() bool {
			if len(senders) == 0 {
				return false
			}
			delta := 1
			if rng.Intn(2) == 0 {
				delta = -1
			}
			n := c.NumStaticSlots + delta
			maxSlots := len(senders) * opts.SlotCountCap
			if n < len(senders) || n > maxSlots || n > flexray.MaxStaticSlots {
				return false
			}
			c.NumStaticSlots = n
			c.StaticSlotOwner = assignSlotsByQuota(sys, n)
			return true
		},
		// Grow/shrink the static slot length by 20·gdBit.
		func() bool {
			if c.NumStaticSlots == 0 {
				return false
			}
			step := opts.Params.SlotStep()
			delta := step
			if rng.Intn(2) == 0 {
				delta = -step
			}
			l := c.StaticSlotLen + delta
			if l < minStaticSlotLen(sys, opts.Params) || l > opts.Params.MaxStaticSlotLen() {
				return false
			}
			c.StaticSlotLen = l
			return true
		},
		// Resize the dynamic segment.
		func() bool {
			if len(c.FrameID) == 0 {
				return false
			}
			steps := []int{1, 5, 25, 125}
			delta := steps[rng.Intn(len(steps))]
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			minMS, maxMS := dynBounds(sys, c, c.MinislotLen)
			n := c.NumMinislots + delta
			if n < minMS || n > maxMS {
				return false
			}
			c.NumMinislots = n
			return true
		},
		// Reassign one static slot to another ST-sending node.
		func() bool {
			if c.NumStaticSlots == 0 || len(senders) < 2 {
				return false
			}
			slot := rng.Intn(c.NumStaticSlots)
			node := senders[rng.Intn(len(senders))]
			old := c.StaticSlotOwner[slot]
			if old == node {
				return false
			}
			c.StaticSlotOwner[slot] = node
			// Every ST sender must keep at least one slot.
			owned := map[model.NodeID]bool{}
			for _, o := range c.StaticSlotOwner {
				owned[o] = true
			}
			for _, s := range senders {
				if !owned[s] {
					return false
				}
			}
			return true
		},
		// Move one DYN message to another FrameID.
		func() bool {
			if len(c.FrameID) == 0 {
				return false
			}
			msgs := make([]model.ActID, 0, len(c.FrameID))
			for m := range c.FrameID {
				msgs = append(msgs, m)
			}
			sort.Slice(msgs, func(i, j int) bool { return msgs[i] < msgs[j] })
			m := msgs[rng.Intn(len(msgs))]
			maxFid := c.MaxFrameID() + 1
			fid := 1 + rng.Intn(maxFid)
			if fid == c.FrameID[m] {
				return false
			}
			// Sharing is allowed only within the sender node, and
			// the slot must stay reachable.
			node := sys.App.Act(m).Node
			for o, f := range c.FrameID {
				if f == fid && sys.App.Act(o).Node != node {
					return false
				}
			}
			s := c.SizeInMinislots(sys.App.Act(m).C)
			if fid+s-1 > c.NumMinislots {
				return false
			}
			c.FrameID[m] = fid
			return true
		},
	}
	// Try a random move; fall back to any applicable one so hot loops
	// do not stall on impossible moves.
	order := rng.Perm(len(moves))
	for _, i := range order {
		if moves[i]() {
			return c
		}
		c = cfg.Clone() // undo partial effects
	}
	return nil
}
