package sched_test

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

// genConfigured returns a random system with its BBC configuration —
// the cheapest way to obtain a valid (system, config) pair.
func genConfigured(t testing.TB, nodes int, seed int64) (*model.System, *flexray.Config) {
	t.Helper()
	p := synth.DefaultParams(nodes, seed)
	p.DeadlineFactor = 2.0
	sys, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.DYNGridCap = 8
	res, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res.Config
}

func TestBuildPlacesEveryTTInstance(t *testing.T) {
	sys, cfg := genConfigured(t, 3, 21)
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hyper := sys.App.HyperPeriod()
	for _, id := range sys.App.Tasks(int(model.SCS)) {
		want := int(hyper / sys.App.Period(id))
		if got := len(table.TaskEntries(id)); got != want {
			t.Errorf("task %d: %d instances in table, want %d", id, got, want)
		}
	}
	for _, id := range sys.App.Messages(int(model.ST)) {
		want := int(hyper / sys.App.Period(id))
		if got := len(table.MsgEntries(id)); got != want {
			t.Errorf("ST message %d: %d instances, want %d", id, got, want)
		}
	}
}

func TestBuildRespectsPrecedence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		sys, cfg := genConfigured(t, 3, seed)
		table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Index finish times per (act, instance).
		finish := map[[2]int]units.Time{}
		for _, e := range table.Tasks {
			finish[[2]int{int(e.Act), e.Instance}] = e.End
		}
		for _, e := range table.Msgs {
			finish[[2]int{int(e.Act), e.Instance}] = e.Delivery
		}
		start := func(act model.ActID, inst int) (units.Time, bool) {
			for _, e := range table.TaskEntries(act) {
				if e.Instance == inst {
					return e.Start, true
				}
			}
			for _, e := range table.MsgEntries(act) {
				if e.Instance == inst {
					return e.TxStart, true
				}
			}
			return 0, false
		}
		for i := range sys.App.Acts {
			a := &sys.App.Acts[i]
			if !a.IsTT() {
				continue
			}
			n := int(sys.App.HyperPeriod() / sys.App.Period(a.ID))
			for inst := 0; inst < n; inst++ {
				s, ok := start(a.ID, inst)
				if !ok {
					t.Fatalf("seed %d: activity %s instance %d missing", seed, a.Name, inst)
				}
				for _, p := range a.Preds {
					if !sys.App.Acts[p].IsTT() {
						continue
					}
					pf, ok := finish[[2]int{int(p), inst}]
					if !ok {
						continue
					}
					if s < pf {
						t.Errorf("seed %d: %s[%d] starts %v before pred %s finishes %v",
							seed, a.Name, inst, s, sys.App.Acts[p].Name, pf)
					}
				}
			}
		}
	}
}

func TestBuildHonoursGraphReleases(t *testing.T) {
	sys, cfg := genConfigured(t, 2, 33)
	table, _, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range table.Tasks {
		release := units.Time(int64(sys.App.Period(e.Act)) * int64(e.Instance))
		if e.Start < release {
			t.Errorf("task %d instance %d starts %v before its release %v",
				e.Act, e.Instance, e.Start, release)
		}
	}
	for _, e := range table.Msgs {
		release := units.Time(int64(sys.App.Period(e.Act)) * int64(e.Instance))
		if e.TxStart < release {
			t.Errorf("message %d instance %d transmitted %v before release %v",
				e.Act, e.Instance, e.TxStart, release)
		}
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	sys, cfg := genConfigured(t, 3, 44)
	t1, r1, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t2, r2, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Tasks) != len(t2.Tasks) || len(t1.Msgs) != len(t2.Msgs) {
		t.Fatal("different table sizes across runs")
	}
	for i := range t1.Tasks {
		if t1.Tasks[i] != t2.Tasks[i] {
			t.Fatalf("task entry %d differs: %+v vs %+v", i, t1.Tasks[i], t2.Tasks[i])
		}
	}
	for i := range t1.Msgs {
		if t1.Msgs[i] != t2.Msgs[i] {
			t.Fatalf("msg entry %d differs: %+v vs %+v", i, t1.Msgs[i], t2.Msgs[i])
		}
	}
	if r1.Cost != r2.Cost {
		t.Errorf("cost differs: %v vs %v", r1.Cost, r2.Cost)
	}
}

func TestBuildSmallHandSystem(t *testing.T) {
	// Two SCS tasks with a message between them: t1 [0,100µs) on N0,
	// message in N0's slot, then t2 after delivery on N1.
	b := model.NewBuilder("hand", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	t1 := b.Task(g, "t1", 0, 100*us, model.SCS)
	t2 := b.Task(g, "t2", 1, 200*us, model.SCS)
	m := b.Message("m", model.ST, 50*us, t1, t2, 0)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen:   100 * us,
		NumStaticSlots:  2,
		StaticSlotOwner: []model.NodeID{0, 1},
		MinislotLen:     10 * us,
		NumMinislots:    10,
		FrameID:         map[model.ActID]int{},
	}
	table, res, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	te1 := table.TaskEntries(t1)[0]
	if te1.Start != 0 || te1.End != units.Time(100*us) {
		t.Errorf("t1 scheduled [%v,%v), want [0,100µs)", te1.Start, te1.End)
	}
	me := table.MsgEntries(m)[0]
	// First N0 slot at or after 100µs is slot 1 of cycle 1 (cycle =
	// 300µs): transmission at 300µs, delivery 400µs.
	if me.Cycle != 1 || me.Slot != 1 {
		t.Errorf("message in cycle %d slot %d, want cycle 1 slot 1", me.Cycle, me.Slot)
	}
	if me.Delivery != units.Time(400*us) {
		t.Errorf("delivery = %v, want 400µs", me.Delivery)
	}
	te2 := table.TaskEntries(t2)[0]
	if te2.Start < me.Delivery {
		t.Errorf("t2 starts %v before message delivery %v", te2.Start, me.Delivery)
	}
	if !res.Schedulable {
		t.Errorf("hand system unschedulable: %v", res.Violations)
	}
	// Response of t2: delivery 400µs + 200µs = 600µs from release.
	if got, _ := res.Response(t2); got != 600*us {
		t.Errorf("R(t2) = %v, want 600µs", got)
	}
}

func TestBuildFailsWhenSTSenderHasNoSlot(t *testing.T) {
	b := model.NewBuilder("noslot", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	t1 := b.Task(g, "t1", 0, 100*us, model.SCS)
	t2 := b.Task(g, "t2", 1, 200*us, model.SCS)
	b.Message("m", model.ST, 50*us, t1, t2, 0)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen:   100 * us,
		NumStaticSlots:  1,
		StaticSlotOwner: []model.NodeID{1}, // sender N0 owns nothing
		MinislotLen:     10 * us,
		NumMinislots:    10,
		FrameID:         map[model.ActID]int{},
	}
	if _, _, err := sched.Build(sys, cfg, sched.DefaultOptions()); err == nil {
		t.Fatal("scheduling without sender slot succeeded")
	}
}
