package analysis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

const (
	us = units.Microsecond
	ms = units.Millisecond
)

func actID(t testing.TB, sys *model.System, name string) model.ActID {
	t.Helper()
	for i := range sys.App.Acts {
		if sys.App.Acts[i].Name == name {
			return sys.App.Acts[i].ID
		}
	}
	t.Fatalf("no activity %q", name)
	return model.None
}

// fig4System rebuilds the paper's Fig. 4 scenario directly against the
// analysis: N1 sends m1 (7 minislots, high priority) and m3 (3), N2
// sends m2 (6); ST segment one 8µs slot; minislot 1µs.
func fig4System(t testing.TB) (*model.System, *flexray.Config) {
	t.Helper()
	b := model.NewBuilder("fig4-ana", 2)
	g := b.Graph("G", 200*us, 200*us)
	t1 := b.Task(g, "t1", 0, 0, model.SCS)
	t3 := b.Task(g, "t3", 0, 0, model.SCS)
	t2 := b.Task(g, "t2", 1, 0, model.SCS)
	r1 := b.PrioTask(g, "r1", 1, 0, 1)
	r3 := b.PrioTask(g, "r3", 1, 0, 1)
	r2 := b.PrioTask(g, "r2", 0, 0, 1)
	b.Message("m1", model.DYN, 7*us, t1, r1, 10)
	b.Message("m2", model.DYN, 6*us, t2, r2, 5)
	b.Message("m3", model.DYN, 3*us, t3, r3, 1)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen:   8 * us,
		NumStaticSlots:  1,
		StaticSlotOwner: []model.NodeID{0},
		MinislotLen:     us,
		NumMinislots:    12,
		FrameID: map[model.ActID]int{
			actID(t, sys, "m1"): 1,
			actID(t, sys, "m2"): 2,
			actID(t, sys, "m3"): 3,
		},
		Policy: flexray.LatestTxPerFrame,
	}
	return sys, cfg
}

func newAnalyzer(t testing.TB, sys *model.System, cfg *flexray.Config) *Analyzer {
	t.Helper()
	table := schedule.New(cfg, sys.App.HyperPeriod())
	return New(sys, cfg, table, DefaultOptions())
}

// fillNeedOf resolves the dense-index arguments fillNeed takes on the
// flat layout.
func fillNeedOf(a *Analyzer, act *model.Activity) int {
	di := a.dynIdx[act.ID]
	return a.fillNeed(act, a.fids[di], int(di))
}

// envOf builds (or fetches) the flat interference environment of act
// under FrameID fid.
func envOf(a *Analyzer, act *model.Activity, fid int) *flatEnv {
	return a.buildEnv(int(a.dynIdx[act.ID]), act, fid)
}

// hpOf and groupsOf materialise the slab-backed hp(m) and lf(m) sets of
// an environment for assertions.
func hpOf(a *Analyzer, env *flatEnv) []model.ActID {
	return a.ar.hp[env.hpLo:env.hpHi]
}

func groupsOf(a *Analyzer, env *flatEnv) [][]lfItem {
	var out [][]lfItem
	for g := 0; g < a.ar.groups(env); g++ {
		s, e := a.ar.groupBounds(env, g)
		out = append(out, a.ar.lf[s:e])
	}
	return out
}

func TestFillNeedPerFrame(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	// m2: fid 2, size 6, n=12: blocked iff E >= 12-6-2+2 = 6.
	if got := fillNeedOf(a, sys.App.Act(actID(t, sys, "m2"))); got != 6 {
		t.Errorf("fillNeed(m2) = %d, want 6", got)
	}
	// m1: fid 1, size 7: need = 12-7-1+2 = 6.
	if got := fillNeedOf(a, sys.App.Act(actID(t, sys, "m1"))); got != 6 {
		t.Errorf("fillNeed(m1) = %d, want 6", got)
	}
}

func TestFillNeedPerNode(t *testing.T) {
	sys, cfg := fig4System(t)
	cfg.Policy = flexray.LatestTxPerNode
	a := newAnalyzer(t, sys, cfg)
	// Node 0's largest frame is m1 (7): pLatestTx = 12-7+1 = 6. For
	// m3 (fid 3): need = 6-3+1 = 4.
	if got := fillNeedOf(a, sys.App.Act(actID(t, sys, "m3"))); got != 4 {
		t.Errorf("fillNeed(m3, per-node) = %d, want 4", got)
	}
}

func TestDynEnvSets(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	m2 := sys.App.Act(actID(t, sys, "m2"))
	env := envOf(a, m2, 2)
	if hp := hpOf(a, env); len(hp) != 0 {
		t.Errorf("hp(m2) = %v, want empty (unique FrameIDs)", hp)
	}
	// lf(m2) = {m1} (fid 1 < 2), grouped by FrameID; m1 contributes
	// 6 extra minislots.
	groups := groupsOf(a, env)
	if len(groups) != 1 || len(groups[0]) != 1 {
		t.Fatalf("lfGroups(m2) = %+v, want one group of one", groups)
	}
	if got := groups[0][0].extra; got != 6 {
		t.Errorf("extra(m1) = %d, want 6 (size 7 - 1)", got)
	}
}

func TestDynEnvSharedFrameID(t *testing.T) {
	sys, cfg := fig4System(t)
	// Table A of Fig. 4: m3 shares FrameID 1 with the
	// higher-priority m1.
	cfg.FrameID[actID(t, sys, "m3")] = 1
	a := newAnalyzer(t, sys, cfg)
	m3 := sys.App.Act(actID(t, sys, "m3"))
	env := envOf(a, m3, 1)
	if hp := hpOf(a, env); len(hp) != 1 || hp[0] != actID(t, sys, "m1") {
		t.Errorf("hp(m3) = %v, want [m1]", hp)
	}
	if groups := groupsOf(a, env); len(groups) != 0 {
		t.Errorf("lf(m3) = %+v, want empty (fid 1 has no lower slots)", groups)
	}
}

func TestDynResponseBoundsFig4(t *testing.T) {
	// The analysis bound must dominate the exact simulated responses
	// of Fig. 4b (35µs for m2) while staying finite and sane.
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	res := a.Run()
	m2 := actID(t, sys, "m2")
	if res.R[m2] < 35*us {
		t.Errorf("R(m2) = %v, below the simulated response 35µs", res.R[m2])
	}
	if res.R[m2] > 200*us {
		t.Errorf("R(m2) = %v, absurdly above one period", res.R[m2])
	}
	// m1 has the lowest FrameID, no hp, no lf: its worst case is one
	// missed cycle (sigma = 20-8-0 = 12) plus w' (8) plus C (7).
	m1 := actID(t, sys, "m1")
	if got, want := res.R[m1], 27*us; got != want {
		t.Errorf("R(m1) = %v, want exactly %v (sigma+w'+C)", got, want)
	}
}

func TestDynResponseMissingFrameIDSaturates(t *testing.T) {
	sys, cfg := fig4System(t)
	delete(cfg.FrameID, actID(t, sys, "m2"))
	a := newAnalyzer(t, sys, cfg)
	res := a.Run()
	m2 := actID(t, sys, "m2")
	if res.R[m2] < sys.App.Deadline(m2) {
		t.Errorf("R(m2) without FrameID = %v, want saturation above deadline", res.R[m2])
	}
	if res.Schedulable {
		t.Error("system with untransmittable message reported schedulable")
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v, want positive", res.Cost)
	}
}

func TestCostFunctionSigns(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	res := a.Run()
	if !res.Schedulable {
		t.Fatalf("Fig. 4 system should be schedulable with 200µs deadlines: %v", res.Violations)
	}
	if res.Cost >= 0 {
		t.Errorf("schedulable system must have cost < 0 (f2 = sum of slacks), got %v", res.Cost)
	}
	// Tighten every deadline to force f1 > 0.
	for g := range sys.App.Graphs {
		sys.App.Graphs[g].Deadline = 10 * us
	}
	res = newAnalyzer(t, sys, cfg).Run()
	if res.Schedulable || res.Cost <= 0 {
		t.Errorf("tight system: schedulable=%v cost=%v, want infeasible positive",
			res.Schedulable, res.Cost)
	}
}

func TestInstancesJitterTerm(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	m1 := actID(t, sys, "m1")
	// Window of one period, no jitter: exactly one activation.
	if got := a.instances(m1, 200*us); got != 1 {
		t.Errorf("instances(T, J=0) = %d, want 1", got)
	}
	// Window epsilon short of two periods.
	if got := a.instances(m1, 399*us); got != 2 {
		t.Errorf("instances(2T-eps) = %d, want 2", got)
	}
	// Jitter adds activations.
	a.j[m1] = 200 * us
	if got := a.instances(m1, 200*us); got != 2 {
		t.Errorf("instances(T, J=T) = %d, want 2", got)
	}
}

// testArena builds a standalone arena holding one environment from
// explicit per-group items and budgets, for exercising the fill
// solvers in isolation.
func testArena(need int, groups [][]lfItem, budgets [][]int64) (*dynArena, *flatEnv) {
	ar := &dynArena{envs: make([]flatEnv, 1)}
	e := &ar.envs[0]
	e.need = need
	e.built = true
	for gi, g := range groups {
		ar.lf = append(ar.lf, g...)
		ar.grp = append(ar.grp, int32(len(ar.lf)))
		ar.budget = append(ar.budget, budgets[gi]...)
	}
	e.lfHi = int32(len(ar.lf))
	e.grpHi = int32(len(ar.grp))
	return ar, e
}

// TestGreedyFillNeverExceedsExact: the greedy heuristic produces a
// realisable filling, so the exact branch-and-bound maximum must always
// dominate it.
func TestGreedyFillNeverExceedsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nGroups := 1 + rng.Intn(4)
		need := 1 + rng.Intn(8)
		groups := make([][]lfItem, nGroups)
		budgets := make([][]int64, nGroups)
		for g := 0; g < nGroups; g++ {
			nItems := 1 + rng.Intn(3)
			var items []lfItem
			for i := 0; i < nItems; i++ {
				items = append(items, lfItem{id: model.ActID(g*10 + i), extra: 1 + rng.Intn(6)})
			}
			// Groups are kept sorted by extra descending, as
			// buildEnv produces them.
			for i := 1; i < len(items); i++ {
				for j := i; j > 0 && items[j].extra > items[j-1].extra; j-- {
					items[j], items[j-1] = items[j-1], items[j]
				}
			}
			groups[g] = items
			budgets[g] = make([]int64, nItems)
			for i := range budgets[g] {
				budgets[g][i] = int64(rng.Intn(4))
			}
		}
		ar, env := testArena(need, groups, budgets)
		exact, complete := ar.exactFill(env, 500000)
		if !complete {
			continue
		}
		// greedyFill consumes the budget row in place; exactFill
		// worked on its own copy, so the row is still pristine.
		greedy := ar.greedyFill(env)
		if greedy > exact {
			t.Fatalf("trial %d: greedy fill %d exceeds exact maximum %d (need %d, groups %+v, budgets %+v)",
				trial, greedy, exact, need, groups, budgets)
		}
	}
}

func TestExactFillHandComputed(t *testing.T) {
	// Two groups: group A has one item of extra 3 (budget 2), group
	// B one item of extra 2 (budget 1). Need 5: only one cycle can
	// be filled (A+B); a second cycle has only A (3 < 5).
	groups := [][]lfItem{
		{{id: 1, extra: 3}},
		{{id: 2, extra: 2}},
	}
	ar, env := testArena(5, groups, [][]int64{{2}, {1}})
	got, ok := ar.exactFill(env, 100000)
	if !ok || got != 1 {
		t.Errorf("exactFill = %d (ok=%v), want 1", got, ok)
	}
	// With need 3, group A alone fills a cycle: 2 cycles from A's
	// budget plus... B alone is 2 < 3, so exactly 2.
	ar, env = testArena(3, groups, [][]int64{{2}, {1}})
	got, ok = ar.exactFill(env, 100000)
	if !ok || got != 2 {
		t.Errorf("exactFill(need 3) = %d (ok=%v), want 2", got, ok)
	}
	// Combining B with one A (3+2=5) wastes budget; exact should
	// still find 2.
}

// TestGreedyFillBreaksTiesByFrameID pins the candidate order of
// greedyFill on ties: equal extras are taken in FrameID (group) order.
func TestGreedyFillBreaksTiesByFrameID(t *testing.T) {
	// FrameIDs 1 and 2 tie at extra 2; FrameID 2 also has an item of
	// extra 1. Need 3: FrameID 1's candidate is taken first and whole,
	// so FrameID 2's pick comes last and is swapped for its extra-1
	// item (2+1 = 3). One cycle fills; FrameID 2's extra-2 item is left
	// for the final cycle. Taken the other way round, FrameID 1's pick
	// would come last with nothing to swap to, and FrameID 2's extra-2
	// item would be consumed instead.
	ar, env := testArena(3, [][]lfItem{
		{{fid: 1, id: 1, extra: 2}},
		{{fid: 2, id: 2, extra: 2}, {fid: 2, id: 3, extra: 1}},
	}, [][]int64{{1}, {1, 1}})
	if got := ar.greedyFill(env); got != 1 {
		t.Errorf("filled = %d, want 1", got)
	}
	if got := ar.leftoverExtras(env); got != 2 {
		t.Errorf("leftover = %d, want 2", got)
	}
	if want := []int64{0, 1, 0}; !slices.Equal(ar.budget, want) {
		t.Errorf("budgets = %v, want %v", ar.budget, want)
	}

	// 16 groups whose candidates all start tied at extra 3, with need
	// 5. Once candidates run out, later items of extra 1-2 join the
	// list, and more than 12 mixed candidates are ordered by FrameID on
	// ties; an unstable sort reorders them (the standard library's
	// pdqsort fills 29 cycles here, leaving budgets {0 2} for FrameID 1
	// and {0 2 3} for FrameID 14).
	ar, env = tieArena()
	if got := ar.greedyFill(env); got != 30 {
		t.Errorf("16 ties: filled = %d, want 30", got)
	}
	if got := ar.leftoverExtras(env); got != 3 {
		t.Errorf("16 ties: leftover = %d, want 3", got)
	}
	// Final budgets per FrameID group: {0 3} for FrameID 1, {0 1} for
	// FrameID 4, {0 0 3} for FrameID 14, nothing left elsewhere.
	want := slices.Concat(
		[]int64{0, 3}, []int64{0}, []int64{0, 0}, []int64{0, 1},
		[]int64{0, 0}, []int64{0, 0}, []int64{0}, []int64{0},
		[]int64{0}, []int64{0, 0}, []int64{0}, []int64{0},
		[]int64{0}, []int64{0, 0, 3}, []int64{0}, []int64{0, 0},
	)
	if !slices.Equal(ar.budget, want) {
		t.Errorf("16 ties: budgets = %v, want %v", ar.budget, want)
	}
}

// tieArena builds the 16 FrameID groups of TestGreedyFillBreaksTiesByFrameID.
func tieArena() (*dynArena, *flatEnv) {
	extras := [][]int{
		{3, 1}, {3}, {3, 2}, {3, 1}, {3, 3}, {3, 3}, {3}, {3},
		{3}, {3, 2}, {3}, {3}, {3}, {3, 2, 1}, {3}, {3, 1},
	}
	budgets := [][]int64{
		{1, 4}, {3}, {4, 3}, {4, 2}, {2, 4}, {1, 2}, {1}, {3},
		{4}, {2, 4}, {4}, {1}, {4}, {3, 4, 3}, {1}, {4, 1},
	}
	groups := make([][]lfItem, len(extras))
	for g, row := range extras {
		for i, e := range row {
			groups[g] = append(groups[g], lfItem{fid: g + 1, id: model.ActID(10*g + i), extra: e})
		}
	}
	return testArena(5, groups, budgets)
}

// TestGreedyFillAllocatesNothing: on a warm arena the candidate list
// reuses its slab, so greedyFill does not allocate.
func TestGreedyFillAllocatesNothing(t *testing.T) {
	ar, env := tieArena()
	full := slices.Clone(ar.budget)
	allocs := testing.AllocsPerRun(100, func() {
		copy(ar.budget, full)
		ar.greedyFill(env)
	})
	if allocs != 0 {
		t.Errorf("greedyFill allocates %v times per call, want 0", allocs)
	}
}

func TestLeftoverExtrasStaysBelowNeed(t *testing.T) {
	groups := [][]lfItem{
		{{id: 1, extra: 3}},
		{{id: 2, extra: 2}},
	}
	ar, env := testArena(4, groups, [][]int64{{1}, {1}})
	// Max extras strictly below 4: 3 (taking both would reach 5,
	// capped; greedy takes 3 then cannot add 2 without exceeding 3).
	if got := ar.leftoverExtras(env); got != 3 {
		t.Errorf("leftoverExtras = %d, want 3", got)
	}
	// Nothing available.
	ar, env = testArena(4, groups, [][]int64{{0}, {0}})
	if got := ar.leftoverExtras(env); got != 0 {
		t.Errorf("leftoverExtras(empty) = %d, want 0", got)
	}
}

// TestInterferersFPSOrdering pins the FPS interferers: the
// higher-priority tasks of the same node, highest first.
func TestInterferersFPSOrdering(t *testing.T) {
	b := model.NewBuilder("prio", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	lo := b.PrioTask(g, "lo", 0, 100*us, 1)
	mid := b.PrioTask(g, "mid", 0, 100*us, 5)
	hi := b.PrioTask(g, "hi", 0, 100*us, 9)
	other := b.PrioTask(g, "other", 1, 100*us, 9)
	sys := b.MustBuild()
	cfg := &flexray.Config{MinislotLen: us, FrameID: map[model.ActID]int{}}
	a := newAnalyzer(t, sys, cfg)
	for _, tc := range []struct {
		id   model.ActID
		want []model.ActID
	}{{hi, nil}, {mid, []model.ActID{hi}}, {lo, []model.ActID{hi, mid}}, {other, nil}} {
		if got := a.Interferers(tc.id); !slices.Equal(got, tc.want) {
			t.Errorf("Interferers(%s) = %v, want %v", sys.App.Act(tc.id).Name, got, tc.want)
		}
	}
}

func TestFPSResponseWithInterferenceAndBlackouts(t *testing.T) {
	// One node; SCS reservation [0,1ms) every 10ms; two FPS tasks:
	// hi (C=1ms, T=10ms), lo (C=2ms, T=10ms). Critical instant at
	// the blackout start: lo waits 1ms blackout + 1ms hi + 2ms own
	// = 4ms.
	b := model.NewBuilder("fps", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	scs := b.Task(g, "scs", 0, 1*ms, model.SCS)
	hi := b.PrioTask(g, "hi", 0, 1*ms, 9)
	lo := b.PrioTask(g, "lo", 0, 2*ms, 1)
	peer := b.PrioTask(g, "peer", 1, 100*us, 1)
	_ = scs
	_ = peer
	sys := b.MustBuild()
	cfg := &flexray.Config{MinislotLen: us, FrameID: map[model.ActID]int{}}
	table := schedule.New(cfg, sys.App.HyperPeriod())
	if err := table.PlaceTask(scs, 0, 0, 0, 1*ms); err != nil {
		t.Fatal(err)
	}
	a := New(sys, cfg, table, DefaultOptions())
	res := a.Run()
	if got := res.R[hi]; got != 2*ms {
		t.Errorf("R(hi) = %v, want 2ms (blackout + own C)", got)
	}
	if got := res.R[lo]; got != 4*ms {
		t.Errorf("R(lo) = %v, want 4ms (blackout + hi + own C)", got)
	}
}

func TestJitterPropagationAlongChain(t *testing.T) {
	// e1 -> m -> e2: e2's release jitter equals m's response, and
	// R(e2) = J(e2) + C(e2) with an otherwise empty system.
	b := model.NewBuilder("chain", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	e1 := b.PrioTask(g, "e1", 0, 100*us, 2)
	e2 := b.PrioTask(g, "e2", 1, 200*us, 1)
	m := b.Message("m", model.DYN, 50*us, e1, e2, 1)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen: 0, NumStaticSlots: 0, StaticSlotOwner: []model.NodeID{},
		MinislotLen: 10 * us, NumMinislots: 50,
		FrameID: map[model.ActID]int{m: 1},
	}
	a := newAnalyzer(t, sys, cfg)
	res := a.Run()
	if res.J[m] != res.R[e1] {
		t.Errorf("J(m) = %v, want R(e1) = %v", res.J[m], res.R[e1])
	}
	if res.J[e2] != res.R[m] {
		t.Errorf("J(e2) = %v, want R(m) = %v", res.J[e2], res.R[m])
	}
	if got, want := res.R[e2], res.R[m]+200*us; got != want {
		t.Errorf("R(e2) = %v, want %v", got, want)
	}
	if got := res.R[e1]; got != 100*us {
		t.Errorf("R(e1) = %v, want 100µs", got)
	}
}

// TestMoreInterferenceNeverHelps: adding a lower-FrameID message can
// only increase (never decrease) the analysed response of an existing
// message.
func TestMoreInterferenceNeverHelps(t *testing.T) {
	build := func(withExtra bool) units.Duration {
		b := model.NewBuilder("mono", 2)
		g := b.Graph("g", 10*ms, 10*ms)
		e1 := b.PrioTask(g, "e1", 0, 100*us, 2)
		e2 := b.PrioTask(g, "e2", 1, 100*us, 1)
		b.Message("m", model.DYN, 50*us, e1, e2, 1)
		fid := map[model.ActID]int{}
		if withExtra {
			x1 := b.PrioTask(g, "x1", 1, 100*us, 3)
			x2 := b.PrioTask(g, "x2", 0, 100*us, 3)
			mx := b.Message("mx", model.DYN, 80*us, x1, x2, 2)
			fid[mx] = 1
		}
		sys := b.MustBuild()
		mID := actID(t, sys, "m")
		fid[mID] = 2
		cfg := &flexray.Config{
			MinislotLen: 10 * us, NumMinislots: 30,
			FrameID: fid,
		}
		a := newAnalyzer(t, sys, cfg)
		return a.Run().R[mID]
	}
	without := build(false)
	with := build(true)
	if with < without {
		t.Errorf("interference decreased response: %v -> %v", without, with)
	}
}

func TestExactFillOptionAgreesOrDominatesGreedy(t *testing.T) {
	sys, cfg := fig4System(t)
	optsExact := DefaultOptions()
	optsExact.ExactFill = true
	table := schedule.New(cfg, sys.App.HyperPeriod())
	exact := New(sys, cfg, table, optsExact).Run()
	greedy := New(sys, cfg, table, DefaultOptions()).Run()
	for _, m := range sys.App.Messages(int(model.DYN)) {
		if exact.R[m] < greedy.R[m] {
			t.Errorf("message %d: exact R %v below greedy R %v", m, exact.R[m], greedy.R[m])
		}
	}
}

func TestNonConvergentSystemReportedUnschedulable(t *testing.T) {
	// Saturating utilisation: an FPS task with C close to T plus a
	// same-priority-band interferer drives the window past the cap.
	b := model.NewBuilder("sat", 2)
	g := b.Graph("g", 1*ms, 1*ms)
	hi := b.PrioTask(g, "hi", 0, 900*us, 9)
	lo := b.PrioTask(g, "lo", 0, 900*us, 1)
	peer := b.PrioTask(g, "peer", 1, 10*us, 1)
	_, _, _ = hi, lo, peer
	sys := b.MustBuild()
	cfg := &flexray.Config{MinislotLen: us, FrameID: map[model.ActID]int{}}
	a := newAnalyzer(t, sys, cfg)
	res := a.Run()
	if res.Schedulable {
		t.Error("180% utilisation node reported schedulable")
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v, want positive", res.Cost)
	}
}

// TestResetMatchesFresh drives one reusable analyzer through an
// adversarial sequence of (config, table) rebinds — NumMinislots
// sweeps, FrameID permutations, policy flips, tables with and without
// SCS load — and checks every Run against a single-use analyzer built
// fresh for the same inputs. This pins the Reset invalidation rules:
// any cache kept too long would show up as a diverging response time.
func TestResetMatchesFresh(t *testing.T) {
	sys, base := fig4System(t)
	m1, m2, m3 := actID(t, sys, "m1"), actID(t, sys, "m2"), actID(t, sys, "m3")

	emptyTable := schedule.New(base, sys.App.HyperPeriod())
	loaded := schedule.New(base, sys.App.HyperPeriod())
	if err := loaded.PlaceTask(actID(t, sys, "t1"), 0, 0, 0, 30*us); err != nil {
		t.Fatal(err)
	}
	if err := loaded.PlaceTask(actID(t, sys, "t2"), 0, 1, units.Time(10*us), 25*us); err != nil {
		t.Fatal(err)
	}

	var variants []*flexray.Config
	for _, n := range []int{12, 16, 20, 31, 40} { // DYN sweep: env caches must survive
		c := base.Clone()
		c.NumMinislots = n
		variants = append(variants, c)
	}
	perm := base.Clone() // FrameID move: env caches must be dropped
	perm.FrameID[m1], perm.FrameID[m3] = 3, 1
	variants = append(variants, perm)
	shared := base.Clone() // shared FrameID: hp(m) interference appears
	shared.FrameID[m3] = 1
	variants = append(variants, shared)
	perNode := base.Clone() // policy flip changes the fill need only
	perNode.Policy = flexray.LatestTxPerNode
	variants = append(variants, perNode)
	finer := base.Clone() // minislot granularity change invalidates sizes
	finer.MinislotLen = 500 * units.Nanosecond
	finer.NumMinislots = 24
	variants = append(variants, finer)

	reusable := NewReusable(sys, DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	tables := []*schedule.Table{emptyTable, loaded}
	for i := 0; i < 120; i++ {
		cfg := variants[rng.Intn(len(variants))]
		table := tables[rng.Intn(len(tables))]
		reusable.Reset(cfg, table)
		got := reusable.Run()
		want := New(sys, cfg, table, DefaultOptions()).Run()
		for _, m := range []model.ActID{m1, m2, m3} {
			if got.R[m] != want.R[m] || got.J[m] != want.J[m] {
				t.Fatalf("step %d: R/J(%d) = %v/%v after Reset, want %v/%v",
					i, m, got.R[m], got.J[m], want.R[m], want.J[m])
			}
		}
		if got.Cost != want.Cost || got.Schedulable != want.Schedulable {
			t.Fatalf("step %d: cost/schedulable = %v/%v, want %v/%v",
				i, got.Cost, got.Schedulable, want.Cost, want.Schedulable)
		}
	}
}

// TestStepWrapInvalidatesWindows pins the int32 stamp clock's wrap: the
// step after math.MaxInt32 clears every stamp, so every cached window
// reads as stale and is recomputed rather than trusted.
func TestStepWrapInvalidatesWindows(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	a.Run()
	m2 := actID(t, sys, "m2")
	if !a.dynWindowValid(m2) {
		t.Fatal("window of m2 not valid after Run")
	}
	a.step = math.MaxInt32
	if got := a.nextStep(); got != 1 {
		t.Fatalf("step after the wrap = %d, want 1", got)
	}
	for id, at := range a.winStamp {
		if at != 0 || a.jStamp[id] != 0 {
			t.Fatalf("activity %d keeps stamps %d/%d across the wrap", id, at, a.jStamp[id])
		}
	}
	if a.dynWindowValid(m2) {
		t.Error("window of m2 still valid after the wrap")
	}
}
