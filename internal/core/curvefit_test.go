package core

import (
	"math"
	"testing"

	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/units"
)

// cfFixture builds a curveFit over a simple synthetic landscape without
// running real analyses: support points are injected directly.
func cfFixture(grid []int) *curveFit {
	return &curveFit{
		cfg:  &flexray.Config{MinislotLen: units.Microsecond, FrameID: map[model.ActID]int{}},
		grid: grid,
		pts:  map[int]*evalPoint{},
	}
}

func TestWidestGapMid(t *testing.T) {
	cf := cfFixture([]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	cf.pts[10] = &evalPoint{nMS: 10}
	cf.pts[100] = &evalPoint{nMS: 100}
	// Single gap [10,100]: midpoint 55 snaps to grid 50 or 60.
	got := cf.widestGapMid()
	if got != 50 && got != 60 {
		t.Errorf("widestGapMid = %d, want 50 or 60", got)
	}
	cf.pts[50] = &evalPoint{nMS: 50}
	// Gaps [10,50] and [50,100]: the second is wider, mid 75 -> 70
	// or 80.
	got = cf.widestGapMid()
	if got != 70 && got != 80 {
		t.Errorf("widestGapMid = %d, want 70 or 80", got)
	}
}

func TestWidestGapMidExhaustedGrid(t *testing.T) {
	cf := cfFixture([]int{10, 20})
	cf.pts[10] = &evalPoint{nMS: 10}
	cf.pts[20] = &evalPoint{nMS: 20}
	if got := cf.widestGapMid(); got != -1 {
		t.Errorf("widestGapMid on exhausted grid = %d, want -1", got)
	}
}

func TestWidestGapMidSinglePoint(t *testing.T) {
	cf := cfFixture([]int{10, 20})
	cf.pts[10] = &evalPoint{nMS: 10}
	if got := cf.widestGapMid(); got != -1 {
		t.Errorf("widestGapMid with one support point = %d, want -1", got)
	}
}

func TestBestExactPicksCheapest(t *testing.T) {
	cf := cfFixture([]int{1, 2, 3})
	cf.pts[1] = &evalPoint{nMS: 1, cost: 100}
	cf.pts[2] = &evalPoint{nMS: 2, cost: -5}
	cf.pts[3] = &evalPoint{nMS: 3, cost: 40}
	cfg, _, cost := cf.bestExact()
	if cost != -5 || cfg.NumMinislots != 2 {
		t.Errorf("bestExact = (%v, %v), want the nMS=2 point", cfg.NumMinislots, cost)
	}
	if got := cf.bestExactCost(); got != -5 {
		t.Errorf("bestExactCost = %v", got)
	}
}

func TestBestExactEmpty(t *testing.T) {
	cf := cfFixture([]int{1})
	cfg, res, cost := cf.bestExact()
	if cfg != nil || res != nil || cost < infeasibleCost {
		t.Errorf("bestExact on empty set = (%v,%v,%v)", cfg, res, cost)
	}
}

// TestCurveFitFindsNarrowDip reproduces the cruise-controller
// phenomenon in miniature: the feasible DYN window is narrow and far
// from the initial support points, and the gap-bisection refinement
// must still find it.
func TestCurveFitFindsNarrowDip(t *testing.T) {
	p := synth.DefaultParams(3, 6)
	p.DeadlineFactor = 2.0
	sys, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DYNGridCap = 48
	opts.SlotCountCap = 2
	opts.SlotLenSteps = 3
	cf, err := OBCCF(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := OBCEE(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ee.Schedulable && !cf.Schedulable {
		t.Errorf("OBC-EE found a feasible configuration (cost %.1f) that OBC-CF missed (cost %.1f)",
			ee.Cost, cf.Cost)
	}
}

func TestMaxEvaluationsBudgetRespected(t *testing.T) {
	p := synth.DefaultParams(3, 8)
	sys, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxEvaluations = 25
	for _, alg := range []struct {
		name string
		run  func(*model.System, Options) (*Result, error)
	}{
		{"BBC", BBC}, {"OBC-CF", OBCCF}, {"OBC-EE", OBCEE}, {"SA", SA},
	} {
		res, err := alg.run(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		// The budget may be overshot by at most one in-flight
		// evaluation.
		if res.Evaluations > 26 {
			t.Errorf("%s: %d evaluations with a budget of 25", alg.name, res.Evaluations)
		}
		if res.Config == nil {
			t.Errorf("%s: nil config under budget exhaustion", alg.name)
		}
	}
}

func TestAssignSlotsByQuota(t *testing.T) {
	// 3 ST senders with message counts 4/2/1 over 7 slots: quotas
	// 4/2/1.
	b := model.NewBuilder("quota", 4)
	g := b.Graph("g", 10*units.Millisecond, 10*units.Millisecond)
	mk := func(n int, node model.NodeID, tag string) {
		for i := 0; i < n; i++ {
			s := b.Task(g, "s"+tag+string(rune('0'+i)), node, 0, model.SCS)
			r := b.PrioTask(g, "r"+tag+string(rune('0'+i)), 3, 0, 1)
			b.Message("m"+tag+string(rune('0'+i)), model.ST, 10*units.Microsecond, s, r, 0)
		}
	}
	mk(4, 0, "a")
	mk(2, 1, "b")
	mk(1, 2, "c")
	sys := b.MustBuild()

	owners := assignSlotsByQuota(sys, 7)
	if len(owners) != 7 {
		t.Fatalf("owners = %v", owners)
	}
	count := map[model.NodeID]int{}
	for _, o := range owners {
		count[o]++
	}
	if count[0] != 4 || count[1] != 2 || count[2] != 1 {
		t.Errorf("quota counts = %v, want 4/2/1", count)
	}
	// Every sender owns at least one slot even at the minimum count.
	owners = assignSlotsByQuota(sys, 3)
	count = map[model.NodeID]int{}
	for _, o := range owners {
		count[o]++
	}
	for n := model.NodeID(0); n < 3; n++ {
		if count[n] < 1 {
			t.Errorf("node %d starved at 3 slots: %v", n, owners)
		}
	}
}

func TestAssignSlotsRoundRobin(t *testing.T) {
	senders := []model.NodeID{0, 1, 2}
	owners := assignSlotsRoundRobin(senders, 5)
	want := []model.NodeID{0, 1, 2, 0, 1}
	for i := range want {
		if owners[i] != want[i] {
			t.Errorf("owners = %v, want %v", owners, want)
			break
		}
	}
	if got := assignSlotsRoundRobin(nil, 2); got[0] != -1 || got[1] != -1 {
		t.Errorf("ownerless slots = %v", got)
	}
}

func TestSAWarmStartUsesGivenConfig(t *testing.T) {
	p := synth.DefaultParams(2, 31)
	p.DeadlineFactor = 2.0
	sys, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DYNGridCap = 16
	opts.SlotCountCap = 2
	opts.SlotLenSteps = 2
	base, err := OBCCF(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SAWarmStart = base.Config
	opts.SAIterations = 50
	sa, err := SA(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// SA keeps the best-ever configuration, so a warm start can
	// never end worse than where it began.
	if sa.Cost > base.Cost+1e-9 {
		t.Errorf("warm-started SA cost %.1f worse than its start %.1f", sa.Cost, base.Cost)
	}
}

func TestCheckSTFits(t *testing.T) {
	b := model.NewBuilder("big", 2)
	g := b.Graph("g", 10*units.Millisecond, 10*units.Millisecond)
	t1 := b.Task(g, "t1", 0, 0, model.SCS)
	t2 := b.PrioTask(g, "t2", 1, 0, 1)
	b.Message("m", model.ST, 700*units.Microsecond, t1, t2, 0) // > 661 macroticks
	sys := b.MustBuild()
	if err := checkSTFits(sys, flexray.DefaultParams()); err == nil {
		t.Fatal("oversized ST message accepted")
	}
	for _, run := range []func(*model.System, Options) (*Result, error){BBC, OBCCF, OBCEE, SA} {
		if _, err := run(sys, DefaultOptions()); err == nil {
			t.Error("optimiser accepted a system whose ST message fits no legal slot")
		}
	}
}

// bbcCurveFit builds the curve fit OBC-CF would run on sys at the BBC
// configuration's slot geometry, with its initial support set
// evaluated.
func bbcCurveFit(t *testing.T, sys *model.System) *curveFit {
	t.Helper()
	opts := DefaultOptions().withDefaults()
	bbc, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(sys, opts, "OBC-CF")
	cfg := bbc.Config
	minMS, maxMS := dynBounds(sys, cfg, cfg.MinislotLen)
	cf := &curveFit{
		e:    e,
		cfg:  cfg,
		grid: dynGrid(minMS, maxMS, opts.DYNGridCap),
		pts:  map[int]*evalPoint{},
		dyn:  sys.App.Messages(int(model.DYN)),
	}
	for _, nMS := range dynGrid(minMS, maxMS, initialSupportPoints) {
		cf.addPoint(nMS)
	}
	return cf
}

// TestStorePointSumsInActIDOrder: the non-DYN cost split of a support
// point is the sum over the activities in ActID order, so storing the
// same Result always gives the same bits (a sum in any other order can
// differ in its last bits).
func TestStorePointSumsInActIDOrder(t *testing.T) {
	sys, err := synth.Generate(synth.DefaultParams(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	cf := bbcCurveFit(t, sys)
	app := &cf.e.sys.App
	checked := 0
	for nMS, p := range cf.pts {
		if p.res == nil {
			continue
		}
		var f1, f2 float64
		for i := range app.Acts {
			act := &app.Acts[i]
			r, ok := p.res.Response(act.ID)
			if !ok || (act.IsMessage() && act.Class == model.DYN) {
				continue
			}
			diff := (r - app.Deadline(act.ID)).Us()
			if diff > 0 {
				f1 += diff
			}
			f2 += diff
		}
		for rep := 0; rep < 20; rep++ {
			q := cf.storePoint(nMS, p.res, p.cost)
			if math.Float64bits(q.nonDYNf1) != math.Float64bits(f1) || math.Float64bits(q.nonDYNf2) != math.Float64bits(f2) {
				t.Fatalf("nMS %d rep %d: non-DYN sums %v/%v, ActID-order sums %v/%v",
					nMS, rep, q.nonDYNf1, q.nonDYNf2, f1, f2)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no support point was analysed")
	}
}

// TestSelectBestAllocatesNothing: once selectBest has run on a support
// set, interpolating the grid again reuses the curve fit's storage.
func TestSelectBestAllocatesNothing(t *testing.T) {
	cf := bbcCurveFit(t, cruise.MustSystem())
	n, c, exact := cf.selectBest()
	if n < 0 {
		t.Fatal("selectBest found nothing to select")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n2, c2, ex2 := cf.selectBest(); n2 != n || c2 != c || ex2 != exact {
			t.Fatalf("selectBest changed its pick: (%d, %v, %v) then (%d, %v, %v)", n, c, exact, n2, c2, ex2)
		}
	})
	if allocs != 0 {
		t.Errorf("warm selectBest allocates %v times, want 0", allocs)
	}
}
