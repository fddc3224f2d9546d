package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestFig1TraceNarrative checks the protocol phenomena the paper
// explains on Fig. 1: md and me go out in the first cycle, mf wins the
// shared FrameID 4 over mg (higher priority), mh misses the first
// cycle because the remaining minislots cannot hold it, and both mg
// and mh transmit in the second cycle.
func TestFig1TraceNarrative(t *testing.T) {
	text, trace, err := Fig1Trace()
	if err != nil {
		t.Fatal(err)
	}
	sys := Fig1System()
	inCycle := map[string]int64{}
	for _, e := range trace {
		if e.Kind != sim.TraceDYN {
			continue
		}
		for _, id := range e.Acts {
			inCycle[sys.App.Act(id).Name] = e.Cycle
		}
	}
	want := map[string]int64{"md": 0, "me": 0, "mf": 0, "mg": 1, "mh": 1}
	for name, cy := range want {
		if got, ok := inCycle[name]; !ok || got != cy {
			t.Errorf("%s transmitted in cycle %d (found=%v), want %d", name, got, ok, cy)
		}
	}
	for _, name := range []string{"ma", "mb", "mc"} {
		if !strings.Contains(text, name) {
			t.Errorf("trace text lacks ST message %s", name)
		}
	}
}

// TestFig7UShape verifies the characterisation driving the curve-fit
// heuristic: the summed response times fall from the left edge to an
// interior minimum and rise towards the right edge.
func TestFig7UShape(t *testing.T) {
	p := DefaultFig7Params()
	p.Points = 9
	s, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 9 {
		t.Fatalf("points = %d, want 9", len(s.Points))
	}
	sum := func(i int) float64 {
		var v float64
		for _, r := range s.Points[i].R {
			v += r.Us()
		}
		return v
	}
	first, last := sum(0), sum(len(s.Points)-1)
	minIdx := 0
	for i := range s.Points {
		if sum(i) < sum(minIdx) {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(s.Points)-1 {
		t.Errorf("minimum at edge (%d): no U shape (first %.0f, min %.0f, last %.0f)",
			minIdx, first, sum(minIdx), last)
	}
	if !(sum(minIdx) < first && sum(minIdx) < last) {
		t.Errorf("interior minimum %.0f not below edges %.0f / %.0f", sum(minIdx), first, last)
	}
}

// TestFig7SystemCounts pins the paper's workload: 45 tasks, 10 ST and
// 20 DYN messages.
func TestFig7SystemCounts(t *testing.T) {
	sys, err := Fig7System(fig7Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.App.Tasks(-1)); got != 45 {
		t.Errorf("tasks = %d, want 45", got)
	}
	st, dyn := len(sys.App.Messages(0)), len(sys.App.Messages(1))
	// The generator produces the messages its random graphs need;
	// the split must be in the neighbourhood of the paper's 10/20.
	if st < 5 || st > 20 {
		t.Errorf("ST messages = %d, want around 10", st)
	}
	if dyn < 12 || dyn > 35 {
		t.Errorf("DYN messages = %d, want around 20", dyn)
	}
}

// TestCruiseNarrative is the paper's in-text result: BBC fast but
// unschedulable; both OBC variants schedulable; OBC-CF within a few
// percent of OBC-EE at fewer evaluations.
func TestCruiseNarrative(t *testing.T) {
	rows, err := Cruise(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CruiseRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	if byName["BBC"].Schedulable {
		t.Error("BBC should not configure the cruise controller")
	}
	if !byName["OBC-CF"].Schedulable {
		t.Error("OBC-CF must configure the cruise controller")
	}
	if !byName["OBC-EE"].Schedulable {
		t.Error("OBC-EE must configure the cruise controller")
	}
	cf, ee := byName["OBC-CF"], byName["OBC-EE"]
	if cf.Evaluations >= ee.Evaluations {
		t.Errorf("OBC-CF used %d evaluations, OBC-EE %d: curve fitting should be cheaper",
			cf.Evaluations, ee.Evaluations)
	}
	// Paper: OBC-CF's cost within 1.2% of OBC-EE's. Allow 5%.
	dev := (cf.Cost - ee.Cost) / -ee.Cost * 100
	if dev < 0 {
		dev = -dev
	}
	if dev > 5 {
		t.Errorf("OBC-CF cost %.1f deviates %.2f%% from OBC-EE %.1f, want <= 5%%",
			cf.Cost, dev, ee.Cost)
	}
}

// TestFig9QuickShape runs the reduced Fig. 9 population and checks the
// structural relations of both panels.
func TestFig9QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment")
	}
	p := QuickFig9Params()
	p.AppsPerSet = 2
	p.NodeCounts = []int{2, 3}
	res, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8 (4 algorithms x 2 node counts)", len(res.Cells))
	}
	for _, nodes := range p.NodeCounts {
		sa := res.Cell("SA", nodes)
		bbc := res.Cell("BBC", nodes)
		cf := res.Cell("OBC-CF", nodes)
		ee := res.Cell("OBC-EE", nodes)
		if sa == nil || bbc == nil || cf == nil || ee == nil {
			t.Fatalf("missing cells for %d nodes", nodes)
		}
		// SA is its own baseline.
		if sa.AvgDeviationPct != 0 {
			t.Errorf("n=%d: SA deviation %.3f, want 0", nodes, sa.AvgDeviationPct)
		}
		// SA warm-starts from the best OBC result, so nothing
		// deviates negatively (better than SA).
		for _, c := range []*Fig9Cell{bbc, cf, ee} {
			if c.AvgDeviationPct < -1e-9 {
				t.Errorf("n=%d: %s deviates %.3f%% below the SA baseline",
					nodes, c.Algorithm, c.AvgDeviationPct)
			}
		}
		// Fig. 9 right panel orderings: BBC is by far the
		// cheapest; OBC-CF spends fewer evaluations than OBC-EE.
		if bbc.Evaluations >= cf.Evaluations {
			t.Errorf("n=%d: BBC evals %d >= OBC-CF %d", nodes, bbc.Evaluations, cf.Evaluations)
		}
		if cf.Evaluations > ee.Evaluations {
			t.Errorf("n=%d: OBC-CF evals %d > OBC-EE %d", nodes, cf.Evaluations, ee.Evaluations)
		}
		// OBC never schedules fewer systems than BBC.
		if cf.Schedulable < bbc.Schedulable {
			t.Errorf("n=%d: OBC-CF schedules %d < BBC %d", nodes, cf.Schedulable, bbc.Schedulable)
		}
	}
}
