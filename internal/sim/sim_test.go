package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/units"
)

const (
	us = units.Microsecond
	ms = units.Millisecond
)

// pipeline builds, schedules and simulates a random BBC-configured
// system.
func pipeline(t testing.TB, nodes int, seed int64, opts Options) (*model.System, *flexray.Config, *Result, map[model.ActID]units.Duration) {
	t.Helper()
	p := synth.DefaultParams(nodes, seed)
	p.DeadlineFactor = 2.0
	sys, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	copts := core.DefaultOptions()
	copts.DYNGridCap = 8
	best, err := core.BBC(sys, copts)
	if err != nil {
		t.Fatal(err)
	}
	table, ana, err := sched.Build(sys, best.Config, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, best.Config, table, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	anaR := map[model.ActID]units.Duration{}
	for k, v := range ana.R {
		anaR[k] = v
	}
	return sys, best.Config, res, anaR
}

// TestSimulationNeverExceedsAnalysis is the soundness property tying
// the whole pipeline together: on randomized systems, no observed
// response may exceed the holistic worst-case bound.
func TestSimulationNeverExceedsAnalysis(t *testing.T) {
	for _, nodes := range []int{2, 3, 4} {
		for seed := int64(0); seed < 4; seed++ {
			sys, _, res, anaR := pipeline(t, nodes, 500+seed, DefaultOptions())
			for id, simR := range res.MaxResponse {
				if bound, ok := anaR[id]; ok && simR > bound {
					t.Errorf("n=%d seed=%d: %s simulated %v above analysed bound %v",
						nodes, seed, sys.App.Acts[id].Name, simR, bound)
				}
			}
			if res.Unfinished != 0 {
				t.Errorf("n=%d seed=%d: %d unfinished instances", nodes, seed, res.Unfinished)
			}
		}
	}
}

// TestSimulationCompletesEveryInstance: with a generous drain, every
// released instance finishes.
func TestSimulationCompletesEveryInstance(t *testing.T) {
	sys, _, res, _ := pipeline(t, 3, 77, DefaultOptions())
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		if res.Completions[a.ID] == 0 {
			t.Errorf("activity %s never completed", a.Name)
		}
	}
}

func TestTraceInvariants(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	opts.TraceCap = 100000
	sys, cfg, res, _ := pipeline(t, 3, 88, opts)
	checkTrace(t, sys, cfg, res.Trace)
}

// checkTrace asserts the bus-level invariants of a dynamic-segment
// trace, the ones the FocusST specification of FlexRay (Spichkova)
// states for the dynamic segment:
//   - no empty or overlapping events, every event inside the dynamic
//     segment of its cycle, and unused slots exactly one minislot long;
//   - every event starts on the minislot grid of its cycle's dynamic
//     segment and lasts a whole number of minislots;
//   - FrameIDs strictly increase within a cycle, so each dynamic slot
//     carries at most one frame per cycle;
//   - a frame carries one message of its FrameID, lasts exactly
//     SizeInMinislots(C) minislots, and satisfies the latest-transmit
//     rule (cfg.FitsAt) at its starting minislot.
func checkTrace(t *testing.T, sys *model.System, cfg *flexray.Config, trace []TraceEvent) {
	t.Helper()
	var prevEnd units.Time
	prevCycle, prevFid := int64(-1), 0
	ml := units.Time(cfg.MinislotLen)
	for i, e := range trace {
		if e.End <= e.Start {
			t.Fatalf("trace %d: empty interval [%v,%v)", i, e.Start, e.End)
		}
		if e.Start < prevEnd {
			t.Fatalf("trace %d: bus events overlap (%v < %v)", i, e.Start, prevEnd)
		}
		prevEnd = e.End
		// Every event lies inside the dynamic segment of its cycle.
		dynStart := cfg.DYNStart(e.Cycle)
		dynEnd := cfg.CycleStart(e.Cycle + 1)
		if e.Start < dynStart || e.End > dynEnd {
			t.Fatalf("trace %d: event [%v,%v) outside DYN segment [%v,%v)",
				i, e.Start, e.End, dynStart, dynEnd)
		}
		if e.Kind == TraceMinislot && e.End-e.Start != ml {
			t.Fatalf("trace %d: minislot of length %v", i, e.End-e.Start)
		}
		off, dur := e.Start-dynStart, e.End-e.Start
		if off%ml != 0 || dur%ml != 0 {
			t.Fatalf("trace %d: event [%v,%v) off the %v minislot grid of the DYN segment at %v",
				i, e.Start, e.End, cfg.MinislotLen, dynStart)
		}
		if e.Cycle == prevCycle && e.Slot <= prevFid {
			t.Fatalf("trace %d: FrameID %d follows FrameID %d in cycle %d", i, e.Slot, prevFid, e.Cycle)
		}
		prevCycle, prevFid = e.Cycle, e.Slot
		if e.Kind != TraceDYN {
			continue
		}
		if len(e.Acts) != 1 {
			t.Fatalf("trace %d: frame carries %d messages", i, len(e.Acts))
		}
		m := e.Acts[0]
		if fid := cfg.FrameID[m]; fid != e.Slot {
			t.Fatalf("trace %d: message %d with FrameID %d sent in dynamic slot %d", i, m, fid, e.Slot)
		}
		if size := cfg.SizeInMinislots(sys.App.Act(m).C); int(dur/ml) != size {
			t.Fatalf("trace %d: frame of message %d lasts %d minislots, want %d", i, m, dur/ml, size)
		}
		if start := int(off/ml) + 1; !cfg.FitsAt(&sys.App, m, start) {
			t.Fatalf("trace %d: frame of message %d starts at minislot %d, past its latest transmit", i, m, start)
		}
	}
}

func TestPreemptionSemantics(t *testing.T) {
	// lo (prio 1, C=300µs) released at 0; hi (prio 9, C=100µs)
	// released at 100µs: lo runs [0,100), is preempted for [100,200),
	// resumes [200,400). R(lo) = 400µs, R(hi) = 200µs - 100µs = 100µs.
	b := model.NewBuilder("preempt", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	lo := b.PrioTask(g, "lo", 0, 300*us, 1)
	hi := b.PrioTask(g, "hi", 0, 100*us, 9)
	b.Release(hi, 100*us)
	peer := b.PrioTask(g, "peer", 1, 10*us, 1)
	_ = peer
	sys := b.MustBuild()
	cfg := &flexray.Config{MinislotLen: us, NumMinislots: 0, FrameID: map[model.ActID]int{}}
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg, table, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxResponse[lo]; got != 400*us {
		t.Errorf("R(lo) = %v, want 400µs (preempted once)", got)
	}
	// hi's response is measured from the graph release (its Release
	// offset delays its start): completes at 200µs.
	if got := res.MaxResponse[hi]; got != 200*us {
		t.Errorf("R(hi) = %v, want 200µs", got)
	}
}

func TestFPSWaitsForSCSBlackout(t *testing.T) {
	// An SCS reservation [0,1ms) blocks an FPS job released at 0; it
	// completes at 1ms + C.
	b := model.NewBuilder("blackout", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	scs := b.Task(g, "scs", 0, 1*ms, model.SCS)
	fps := b.PrioTask(g, "fps", 0, 200*us, 5)
	peer := b.PrioTask(g, "peer", 1, 10*us, 1)
	_, _ = scs, peer
	sys := b.MustBuild()
	cfg := &flexray.Config{MinislotLen: us, NumMinislots: 0, FrameID: map[model.ActID]int{}}
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg, table, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxResponse[fps]; got != 1200*us {
		t.Errorf("R(fps) = %v, want 1200µs (blackout + C)", got)
	}
}

func TestJoinWaitsForAllPredecessors(t *testing.T) {
	// join has two FPS predecessors with different finish times; it
	// must start only after the later one.
	b := model.NewBuilder("join", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	fast := b.PrioTask(g, "fast", 0, 100*us, 9)
	slow := b.PrioTask(g, "slow", 1, 700*us, 9)
	join := b.PrioTask(g, "join", 0, 50*us, 5)
	b.Edge(fast, join)
	b.Edge(slow, join)
	// Cross-node edge without a message is rejected by validation,
	// so keep join on node 0 and let slow's completion arrive via a
	// DYN message.
	sys := func() *model.System {
		b := model.NewBuilder("join", 2)
		g := b.Graph("g", 10*ms, 10*ms)
		fast := b.PrioTask(g, "fast", 0, 100*us, 9)
		slow := b.PrioTask(g, "slow", 1, 700*us, 9)
		join := b.PrioTask(g, "join", 0, 50*us, 5)
		b.Edge(fast, join)
		b.Message("m_slow", model.DYN, 30*us, slow, join, 3)
		return b.MustBuild()
	}()
	_, _, _ = fast, slow, join
	mID := model.None
	joinID := model.None
	for i := range sys.App.Acts {
		switch sys.App.Acts[i].Name {
		case "m_slow":
			mID = sys.App.Acts[i].ID
		case "join":
			joinID = sys.App.Acts[i].ID
		}
	}
	cfg := &flexray.Config{
		MinislotLen: 10 * us, NumMinislots: 20,
		FrameID: map[model.ActID]int{mID: 1},
	}
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg, table, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// join must finish after m_slow delivered (slow finishes at
	// 700µs; the message goes in the following DYN slot).
	if res.MaxResponse[joinID] <= res.MaxResponse[mID] {
		t.Errorf("join (R=%v) did not wait for m_slow (R=%v)",
			res.MaxResponse[joinID], res.MaxResponse[mID])
	}
	if res.Completions[joinID] != 1 {
		t.Errorf("join completed %d times, want 1", res.Completions[joinID])
	}
}

func TestDYNPriorityWithinSharedFrameID(t *testing.T) {
	// Two messages share FrameID 1 from the same node; the higher
	// priority one transmits first.
	b := model.NewBuilder("shared", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	s1 := b.Task(g, "s1", 0, 0, model.SCS)
	s2 := b.Task(g, "s2", 0, 0, model.SCS)
	r1 := b.PrioTask(g, "r1", 1, 0, 1)
	r2 := b.PrioTask(g, "r2", 1, 0, 1)
	mLo := b.Message("mLo", model.DYN, 20*us, s1, r1, 1)
	mHi := b.Message("mHi", model.DYN, 20*us, s2, r2, 9)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen: 10 * us, NumStaticSlots: 1, StaticSlotOwner: []model.NodeID{0},
		MinislotLen: 10 * us, NumMinislots: 10,
		FrameID: map[model.ActID]int{mLo: 1, mHi: 1},
	}
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg, table, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MaxResponse[mHi] < res.MaxResponse[mLo]) {
		t.Errorf("priority inversion: R(mHi)=%v, R(mLo)=%v",
			res.MaxResponse[mHi], res.MaxResponse[mLo])
	}
	// mLo waits for the next cycle: cycle length 110µs, so it is
	// delivered in cycle 1.
	if res.MaxResponse[mLo] < 110*us {
		t.Errorf("R(mLo) = %v, want at least one full cycle", res.MaxResponse[mLo])
	}
}

func TestRepetitionsRequireDivisibility(t *testing.T) {
	sys, cfg, _, _ := pipeline(t, 2, 99, DefaultOptions())
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Repetitions = 2
	if int64(sys.App.HyperPeriod())%int64(cfg.Cycle()) != 0 {
		if _, err := New(sys, cfg, table, opts); err == nil {
			t.Fatal("indivisible repetition accepted")
		}
	}
}

func TestRepetitionsWithDivisibleCycle(t *testing.T) {
	// Hand system whose cycle divides the hyper-period exactly:
	// cycle 500µs, period 10ms.
	b := model.NewBuilder("reps", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	t1 := b.Task(g, "t1", 0, 100*us, model.SCS)
	t2 := b.Task(g, "t2", 1, 100*us, model.SCS)
	b.Message("m", model.ST, 50*us, t1, t2, 0)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen: 100 * us, NumStaticSlots: 2, StaticSlotOwner: []model.NodeID{0, 1},
		MinislotLen: 10 * us, NumMinislots: 30,
		FrameID: map[model.ActID]int{},
	}
	if int64(sys.App.HyperPeriod())%int64(cfg.Cycle()) != 0 {
		t.Fatalf("fixture cycle %v does not divide 10ms", cfg.Cycle())
	}
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Repetitions = 3
	s, err := New(sys, cfg, table, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		if got := res.Completions[a.ID]; got != 3 {
			t.Errorf("%s completed %d times, want 3", a.Name, got)
		}
	}
}

func TestSTTraceListsTableContent(t *testing.T) {
	sys, cfg, _, _ := pipeline(t, 2, 111, DefaultOptions())
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg, table, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := s.STTrace(2)
	want := 2 * cfg.NumStaticSlots
	if len(tr) != want {
		t.Fatalf("STTrace entries = %d, want %d", len(tr), want)
	}
	for _, e := range tr {
		if e.Kind != TraceST {
			t.Errorf("non-ST event in STTrace")
		}
		if e.End-e.Start != units.Time(cfg.StaticSlotLen) {
			t.Errorf("ST slot length %v, want %v", e.End-e.Start, cfg.StaticSlotLen)
		}
	}
}
