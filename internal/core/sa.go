package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
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
		cur = newConfig(fids)
		cur.NumStaticSlots = len(senders)
		cur.StaticSlotLen = minStaticSlotLen(sys, opts.Params)
		cur.StaticSlotOwner = assignSlotsRoundRobin(senders, cur.NumStaticSlots)
		if len(fids) > 0 {
			minMS, maxMS := dynBounds(sys, cur, cur.MinislotLen)
			if maxMS < minMS {
				return nil, errNoDYNRoom
			}
			cur.NumMinislots = (minMS + maxMS) / 2
		}
	}
	if cur.Cycle() >= flexray.MaxCycle {
		return nil, errNoDYNRoom
	}

	// cur is the walk's one scratch configuration: every move edits it
	// in place and is undone when the candidate is not kept. best is a
	// copy, taken again on every improvement.
	mv := newSAMover(sys, cur, opts, senders)
	bestRes, curCost := e.eval(cur)
	best, bestCost := cur.Clone(), curCost

	// Geometric cooling from an application-scaled temperature down
	// to ~1e-3 of it by the last iteration.
	temp := math.Max(math.Abs(curCost), 100)
	cooling := math.Pow(1e-3, 1/float64(opts.SAIterations))

	// Each mutation starts from the current state, which the
	// accept/reject decision of the previous evaluation just
	// determined. Phase granularity wraps the whole anneal loop in one
	// span — the per-iteration path stays untouched.
	var phase *obs.Span
	if opts.Span.Phases() {
		phase = opts.Span.StartChild("sa.anneal")
	}
	accepts, iters := 0, 0
	for i := 0; i < opts.SAIterations && !e.exhausted(); i++ {
		iters++
		if !mv.move(rng) {
			temp *= cooling
			continue
		}
		if cur.Validate(opts.Params, sys) != nil {
			mv.undo()
			temp *= cooling
			continue
		}
		e.temp = temp // stamped on the candidate's convergence event
		res, cost := e.eval(cur)
		delta := cost - curCost
		accepted := delta < 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-9))
		if accepted {
			accepts++
			curCost = cost
			if cost < bestCost {
				best, bestRes, bestCost = cur.Clone(), res, cost
			}
		} else {
			mv.undo()
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

// Move kinds of saMover, in the order the walk draws them from.
const (
	moveSlotCount = iota // grow/shrink the number of static slots
	moveSlotLen          // grow/shrink the static slot length by 20·gdBit
	moveDYNLen           // resize the dynamic segment
	moveSlotOwner        // reassign one static slot to another ST sender
	moveFrameID          // move one DYN message to another FrameID
	numMoves
)

// dynSteps are the minislot counts a DYN resize move adds or removes.
var dynSteps = [...]int{1, 5, 25, 125}

// saMover applies SA's moves to one configuration in place and undoes
// the last one. Everything a move needs beyond the configuration is
// computed once: the DYN messages in ActID order (moves never add or
// remove FrameID keys), the minimum slot length, the slot-ownership
// scratch, and the quota slot assignment of every slot count, built on
// first use. After those have warmed up, a move and its undo allocate
// nothing.
type saMover struct {
	sys        *model.System
	opts       Options
	senders    []model.NodeID
	c          *flexray.Config
	msgs       []model.ActID
	minSlotLen units.Duration
	owned      []bool           // by NodeID
	quota      [][]model.NodeID // by slot count; nil until first used

	// The undo record: the scalars of the configuration before the
	// last move, and the one slice or map entry it may have changed.
	kind            int
	slotLen         units.Duration
	numSlots, numMS int
	owners          []model.NodeID // moveSlotCount: the old owners
	slot            int            // moveSlotOwner: the slot and its old owner
	owner           model.NodeID
	msg             model.ActID // moveFrameID: the message and its old FrameID
	fid             int
}

// newSAMover prepares moves on c for the ST senders (ascending).
func newSAMover(sys *model.System, c *flexray.Config, opts Options, senders []model.NodeID) *saMover {
	maxSlots := min(len(senders)*opts.SlotCountCap, flexray.MaxStaticSlots)
	mv := &saMover{
		sys: sys, opts: opts, senders: senders, c: c,
		minSlotLen: minStaticSlotLen(sys, opts.Params),
		owned:      make([]bool, sys.Platform.NumNodes),
		quota:      make([][]model.NodeID, maxSlots+1),
		kind:       -1,
	}
	for m := range c.FrameID {
		mv.msgs = append(mv.msgs, m)
	}
	slices.Sort(mv.msgs)
	return mv
}

// move applies one random move: the move kinds are tried in a random
// order (the Fisher-Yates shuffle of rand.Perm, drawing the same
// numbers) until one applies, so hot loops do not stall on impossible
// moves. It reports whether one applied; undo reverts it.
func (mv *saMover) move(rng *rand.Rand) bool {
	var order [numMoves]int
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	for _, kind := range order {
		mv.save(kind)
		if mv.apply(kind, rng) {
			return true
		}
		mv.undo() // revert partial effects
	}
	return false
}

// save records what a move of the given kind may change.
func (mv *saMover) save(kind int) {
	c := mv.c
	mv.kind = kind
	mv.slotLen, mv.numSlots, mv.numMS = c.StaticSlotLen, c.NumStaticSlots, c.NumMinislots
	if kind == moveSlotCount {
		mv.owners = append(mv.owners[:0], c.StaticSlotOwner...)
	}
}

// undo reverts the last move (or the partial effects of a move that did
// not apply).
func (mv *saMover) undo() {
	c := mv.c
	c.StaticSlotLen, c.NumStaticSlots, c.NumMinislots = mv.slotLen, mv.numSlots, mv.numMS
	switch mv.kind {
	case moveSlotCount:
		c.StaticSlotOwner = append(c.StaticSlotOwner[:0], mv.owners...)
	case moveSlotOwner:
		if mv.slot >= 0 {
			c.StaticSlotOwner[mv.slot] = mv.owner
		}
	case moveFrameID:
		if mv.msg >= 0 {
			c.FrameID[mv.msg] = mv.fid
		}
	}
	mv.kind = -1
}

// apply tries one move of the given kind; false means the move was
// structurally impossible.
func (mv *saMover) apply(kind int, rng *rand.Rand) bool {
	c, sys, opts, senders := mv.c, mv.sys, mv.opts, mv.senders
	switch kind {
	case moveSlotCount:
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
		if mv.quota[n] == nil {
			mv.quota[n] = assignSlotsByQuota(sys, n)
		}
		c.NumStaticSlots = n
		c.StaticSlotOwner = append(c.StaticSlotOwner[:0], mv.quota[n]...)
		return true
	case moveSlotLen:
		if c.NumStaticSlots == 0 {
			return false
		}
		step := opts.Params.SlotStep()
		delta := step
		if rng.Intn(2) == 0 {
			delta = -step
		}
		l := c.StaticSlotLen + delta
		if l < mv.minSlotLen || l > opts.Params.MaxStaticSlotLen() {
			return false
		}
		c.StaticSlotLen = l
		return true
	case moveDYNLen:
		if len(c.FrameID) == 0 {
			return false
		}
		delta := dynSteps[rng.Intn(len(dynSteps))]
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
	case moveSlotOwner:
		mv.slot = -1
		if c.NumStaticSlots == 0 || len(senders) < 2 {
			return false
		}
		slot := rng.Intn(c.NumStaticSlots)
		node := senders[rng.Intn(len(senders))]
		old := c.StaticSlotOwner[slot]
		if old == node {
			return false
		}
		mv.slot, mv.owner = slot, old
		c.StaticSlotOwner[slot] = node
		// Every ST sender must keep at least one slot.
		clear(mv.owned)
		for _, o := range c.StaticSlotOwner {
			if o >= 0 && int(o) < len(mv.owned) {
				mv.owned[o] = true
			}
		}
		for _, s := range senders {
			if !mv.owned[s] {
				return false
			}
		}
		return true
	case moveFrameID:
		mv.msg = -1
		if len(mv.msgs) == 0 {
			return false
		}
		m := mv.msgs[rng.Intn(len(mv.msgs))]
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
		mv.msg, mv.fid = m, c.FrameID[m]
		c.FrameID[m] = fid
		return true
	}
	return false
}
