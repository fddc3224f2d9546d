package core

import (
	"testing"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/units"
)

func genSystem(t testing.TB, nodes int, seed int64) *model.System {
	t.Helper()
	sys, err := synth.Generate(synth.DefaultParams(nodes, seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return sys
}

func quickOpts() Options {
	o := DefaultOptions()
	o.DYNGridCap = 16
	o.SlotCountCap = 2
	o.SlotLenSteps = 3
	o.SAIterations = 60
	return o
}

// TestWithDefaultsKeepsAnalysisOptions: filling in defaults keeps the
// analysis settings a caller chose; zero analysis fields are the
// analyzer's own defaults, so withDefaults leaves Sched alone.
func TestWithDefaultsKeepsAnalysisOptions(t *testing.T) {
	var o Options
	o.Sched.Analysis.DivergenceFactor = 2
	if got := o.withDefaults().Sched.Analysis.DivergenceFactor; got != 2 {
		t.Fatalf("DivergenceFactor = %d after withDefaults, want 2", got)
	}
}

func TestBBCProducesValidConfig(t *testing.T) {
	sys := genSystem(t, 3, 7)
	res, err := BBC(sys, quickOpts())
	if err != nil {
		t.Fatalf("BBC: %v", err)
	}
	if res.Config == nil || res.Analysis == nil {
		t.Fatal("BBC returned nil config or analysis")
	}
	if err := res.Config.Validate(flexray.DefaultParams(), sys); err != nil {
		t.Errorf("BBC config invalid: %v", err)
	}
	if res.Evaluations == 0 {
		t.Error("BBC performed no evaluations")
	}
	// BBC's static segment is minimal: one slot per ST-sending node.
	if got, want := res.Config.NumStaticSlots, len(sys.App.STSenderNodes()); got != want {
		t.Errorf("BBC static slots = %d, want %d", got, want)
	}
	if res.Config.StaticSlotLen < sys.App.MaxC(func(a *model.Activity) bool {
		return a.IsMessage() && a.Class == model.ST
	}) {
		t.Error("BBC slot cannot hold the largest ST message")
	}
}

func TestOBCEEAtLeastAsGoodAsBBC(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sys := genSystem(t, 3, seed)
		opts := quickOpts()
		bbc, err := BBC(sys, opts)
		if err != nil {
			t.Fatalf("seed %d: BBC: %v", seed, err)
		}
		ee, err := OBCEE(sys, opts)
		if err != nil {
			t.Fatalf("seed %d: OBCEE: %v", seed, err)
		}
		// OBC-EE's first outer iteration is exactly the BBC sweep,
		// so it can never do worse.
		if ee.Cost > bbc.Cost+1e-9 {
			t.Errorf("seed %d: OBCEE cost %.3f worse than BBC %.3f", seed, ee.Cost, bbc.Cost)
		}
		if err := ee.Config.Validate(flexray.DefaultParams(), sys); err != nil {
			t.Errorf("seed %d: OBCEE config invalid: %v", seed, err)
		}
	}
}

func TestOBCCFAtLeastAsGoodAsBBC(t *testing.T) {
	// The OBC incumbent is seeded with the exhaustive sweep of the
	// BBC-shaped minimal configuration, so neither OBC variant can
	// return a worse cost than BBC on the same grid.
	for _, seed := range []int64{4, 5, 6} {
		sys := genSystem(t, 3, seed)
		opts := quickOpts()
		bbc, err := BBC(sys, opts)
		if err != nil {
			t.Fatalf("seed %d: BBC: %v", seed, err)
		}
		cf, err := OBCCF(sys, opts)
		if err != nil {
			t.Fatalf("seed %d: OBCCF: %v", seed, err)
		}
		if cf.Cost > bbc.Cost+1e-9 {
			t.Errorf("seed %d: OBCCF cost %.3f worse than BBC %.3f", seed, cf.Cost, bbc.Cost)
		}
	}
}

func TestOBCCFCloseToOBCEE(t *testing.T) {
	sys := genSystem(t, 2, 11)
	// The evaluation-count advantage of curve fitting exists for
	// realistic grid densities (the paper sweeps per minislot); a
	// 16-point toy grid would make the exhaustive sweep trivially
	// cheap.
	opts := quickOpts()
	opts.DYNGridCap = 96
	cf, err := OBCCF(sys, opts)
	if err != nil {
		t.Fatalf("OBCCF: %v", err)
	}
	ee, err := OBCEE(sys, opts)
	if err != nil {
		t.Fatalf("OBCEE: %v", err)
	}
	if err := cf.Config.Validate(flexray.DefaultParams(), sys); err != nil {
		t.Errorf("OBCCF config invalid: %v", err)
	}
	// Both must agree on schedulability for this population (the
	// paper reports OBC-CF within 0.5% of OBC-EE); exact costs can
	// differ because OBC-CF evaluates fewer points.
	if cf.Schedulable != ee.Schedulable {
		t.Errorf("OBCCF schedulable=%v, OBCEE schedulable=%v (costs %.2f / %.2f)",
			cf.Schedulable, ee.Schedulable, cf.Cost, ee.Cost)
	}
	if cf.Evaluations >= ee.Evaluations {
		t.Errorf("OBCCF used %d evaluations, OBCEE %d: curve fitting should evaluate fewer",
			cf.Evaluations, ee.Evaluations)
	}
}

func TestSAImprovesOrMatchesStart(t *testing.T) {
	sys := genSystem(t, 2, 5)
	opts := quickOpts()
	sa, err := SA(sys, opts)
	if err != nil {
		t.Fatalf("SA: %v", err)
	}
	if sa.Config == nil {
		t.Fatal("SA returned nil config")
	}
	if err := sa.Config.Validate(flexray.DefaultParams(), sys); err != nil {
		t.Errorf("SA config invalid: %v", err)
	}
	if sa.Evaluations < 2 {
		t.Errorf("SA performed only %d evaluations", sa.Evaluations)
	}
}

func TestAssignFrameIDsUniqueAndCriticalityOrdered(t *testing.T) {
	sys := genSystem(t, 3, 13)
	fids, err := AssignFrameIDs(sys)
	if err != nil {
		t.Fatal(err)
	}
	dyn := sys.App.Messages(int(model.DYN))
	if len(fids) != len(dyn) {
		t.Fatalf("assigned %d FrameIDs for %d DYN messages", len(fids), len(dyn))
	}
	seen := map[int]bool{}
	for _, f := range fids {
		if f < 1 || f > len(dyn) {
			t.Errorf("FrameID %d out of [1,%d]", f, len(dyn))
		}
		if seen[f] {
			t.Errorf("duplicate FrameID %d", f)
		}
		seen[f] = true
	}
	cp, err := sys.App.Criticality()
	if err != nil {
		t.Fatal(err)
	}
	// Smaller CP (more critical) must get a smaller FrameID.
	for _, a := range dyn {
		for _, b := range dyn {
			if cp[a] < cp[b] && fids[a] > fids[b] {
				t.Errorf("criticality order violated: cp %v < %v but fid %d > %d",
					cp[a], cp[b], fids[a], fids[b])
			}
		}
	}
}

func TestDynGrid(t *testing.T) {
	g := dynGrid(10, 10, 5)
	if len(g) != 1 || g[0] != 10 {
		t.Errorf("singleton grid = %v", g)
	}
	g = dynGrid(10, 9, 5)
	if g != nil {
		t.Errorf("empty grid = %v", g)
	}
	g = dynGrid(0, 1000, 5)
	if len(g) != 5 || g[0] != 0 || g[len(g)-1] != 1000 {
		t.Errorf("capped grid = %v", g)
	}
	g = dynGrid(5, 9, 100)
	if len(g) != 5 {
		t.Errorf("dense grid = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Errorf("grid not strictly increasing: %v", g)
		}
	}
}

func TestDynBoundsReachability(t *testing.T) {
	sys := genSystem(t, 2, 17)
	fids, _ := AssignFrameIDs(sys)
	opts := quickOpts()
	cfg := opts.newConfig(fids)
	cfg.NumStaticSlots = len(sys.App.STSenderNodes())
	cfg.StaticSlotLen = minStaticSlotLen(sys, opts.Params)
	minMS, maxMS := dynBounds(sys, cfg, opts.MinislotLen)
	if maxMS < minMS {
		t.Fatalf("no feasible DYN size: [%d,%d]", minMS, maxMS)
	}
	// At the lower bound every message must still be transmittable.
	cfg.NumMinislots = minMS
	for m, fid := range cfg.FrameID {
		s := cfg.SizeInMinislots(sys.App.Act(m).C)
		if fid+s-1 > minMS {
			t.Errorf("message %d unreachable at minMS=%d (fid %d, size %d)", m, minMS, fid, s)
		}
	}
	// The upper bound respects the 16 ms cycle limit.
	cfg.NumMinislots = maxMS
	if cfg.Cycle() >= flexray.MaxCycle {
		t.Errorf("cycle %v at maxMS breaches the 16 ms limit", cfg.Cycle())
	}
	if units.Duration(maxMS)*opts.MinislotLen > units.Duration(flexray.MaxMinislots)*opts.MinislotLen {
		t.Errorf("maxMS %d exceeds protocol minislot limit", maxMS)
	}
}
