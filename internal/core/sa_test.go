package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/synth"
)

// refMutate is SA's clone-based move, kept as the reference for the
// in-place saMover: it applies one random move to a clone of cfg; nil
// means the move was structurally impossible.
func refMutate(sys *model.System, cfg *flexray.Config, rng *rand.Rand, opts Options, senders []model.NodeID) *flexray.Config {
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

// saWalkSystems returns the cruise system and the quick Fig. 9
// population (2-5 nodes, three systems each, deadline factor 2), each
// with the optimiser options of its experiment.
func saWalkSystems(t *testing.T) (systems []*model.System, opts []Options) {
	t.Helper()
	systems = append(systems, cruise.MustSystem())
	opts = append(opts, DefaultOptions().withDefaults())
	quick := DefaultOptions()
	quick.DYNGridCap, quick.SlotCountCap, quick.SlotLenSteps = 24, 2, 3
	for nodes := 2; nodes <= 5; nodes++ {
		for app := 0; app < 3; app++ {
			p := synth.DefaultParams(nodes, 1+int64(nodes)*1000+int64(app))
			p.DeadlineFactor = 2.0
			sys, err := synth.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
			opts = append(opts, quick.withDefaults())
		}
	}
	return systems, opts
}

// sortedSenders returns sys's ST senders in ascending order, as SA
// keeps them.
func sortedSenders(sys *model.System) []model.NodeID {
	senders := sys.App.STSenderNodes()
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	return senders
}

// TestSAMovesMatchCloneWalk walks the in-place mover and the clone-based
// reference side by side with two identically seeded generators: seeds
// 1-10 from each system's BBC configuration and seeds 11-20 from a
// crowded one (one slot short of the most slots, one step short of the
// longest slot, and the longest dynamic segment the cycle limit then
// allows), where growing the static segment breaks the 16 ms limit on
// cruise and Validate rejects the candidate. Each step applies one
// move to both; a candidate Validate rejects is undone, the others are
// kept or undone on a draw from both generators, as SA's acceptance
// test draws. After every step the scratch configuration must have the
// reference's fingerprint and both generators the same next draw.
func TestSAMovesMatchCloneWalk(t *testing.T) {
	const steps = 300
	var rejected, accepted, undone, impossible int
	systems, optss := saWalkSystems(t)
	for si, sys := range systems {
		opts := optss[si]
		bbc, err := BBC(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		senders := sortedSenders(sys)
		full := bbc.Config.Clone()
		full.NumStaticSlots = len(senders)*opts.SlotCountCap - 1
		full.StaticSlotOwner = assignSlotsByQuota(sys, full.NumStaticSlots)
		full.StaticSlotLen = opts.Params.MaxStaticSlotLen() - opts.Params.SlotStep()
		_, full.NumMinislots = dynBounds(sys, full, full.MinislotLen)
		if err := full.Validate(opts.Params, sys); err != nil {
			t.Fatalf("%s: crowded start invalid: %v", sys.Name, err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			start := bbc.Config
			if seed > 10 {
				start = full
			}
			ref := start.Clone()
			cur := start.Clone()
			mv := newSAMover(sys, cur, opts, senders)
			rngRef, rngCur := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for step := 0; step < steps; step++ {
				next := refMutate(sys, ref, rngRef, opts, senders)
				moved := mv.move(rngCur)
				switch {
				case moved != (next != nil):
					t.Fatalf("%s walk %d step %d: in-place move applied %v, reference %v",
						sys.Name, seed, step, moved, next != nil)
				case !moved:
					impossible++
				case next.Validate(opts.Params, sys) != nil:
					if cur.Fingerprint() != next.Fingerprint() {
						t.Fatalf("%s walk %d step %d: rejected candidates differ:\n%+v\n%+v", sys.Name, seed, step, cur, next)
					}
					mv.undo()
					rejected++
				case rngRef.Float64() < 0.5:
					rngCur.Float64()
					ref = next
					accepted++
				default:
					rngCur.Float64()
					mv.undo()
					undone++
				}
				if cur.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("%s walk %d step %d: in-place walk at\n%+v\nreference at\n%+v", sys.Name, seed, step, cur, ref)
				}
				if a, b := rngCur.Int63(), rngRef.Int63(); a != b {
					t.Fatalf("%s walk %d step %d: next draw %d, reference %d", sys.Name, seed, step, a, b)
				}
			}
		}
	}
	t.Logf("%d systems x 20 walks x %d steps: %d accepted, %d undone, %d Validate-rejected, %d without a move",
		len(systems), steps, accepted, undone, rejected, impossible)
	if accepted == 0 || undone == 0 || rejected == 0 {
		t.Errorf("the walks no longer reach every kind of step (accepted %d, undone %d, rejected %d)", accepted, undone, rejected)
	}
}

// TestSAStepAllocatesNothing pins SA's candidate step: once the quota
// slot assignments are memoised, a move, its undo and a kept move
// allocate nothing.
func TestSAStepAllocatesNothing(t *testing.T) {
	sys := cruise.MustSystem()
	opts := DefaultOptions().withDefaults()
	bbc, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	senders := sortedSenders(sys)
	cur := bbc.Config.Clone()
	mv := newSAMover(sys, cur, opts, senders)
	for n := len(senders); n < len(mv.quota); n++ {
		mv.quota[n] = assignSlotsByQuota(sys, n)
	}
	rng := rand.New(rand.NewSource(1))
	step := func() {
		if mv.move(rng) && (cur.Validate(opts.Params, sys) != nil || rng.Intn(2) == 0) {
			mv.undo()
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("an SA step allocates %v times, want 0", got)
	}
}
