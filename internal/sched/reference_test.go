package sched_test

// This file retains the list scheduler as it was before sched.Plan —
// a map of instance nodes rebuilt on every call and a ready list fully
// re-sorted before every selection — as an executable reference
// specification. refBuildTable is a near-verbatim port of that code
// onto the public API. The differential test below drives it and one
// long-lived Plan over randomised slot geometries and requires
// identical tables, entry indices and errors.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/synth"
	"repro/internal/units"
)

type refKey struct {
	act  model.ActID
	inst int
}

// refBuildTable is the reference list scheduler.
func refBuildTable(sys *model.System, cfg *flexray.Config, opts sched.Options) (*schedule.Table, error) {
	app := &sys.App
	horizon := app.HyperPeriod()
	table := schedule.New(cfg, horizon)

	type node struct {
		key      refKey
		release  units.Time
		asap     units.Time
		remain   units.Duration
		pendPred int
	}
	nodes := map[refKey]*node{}
	var ready []*node

	for g := range app.Graphs {
		tg := &app.Graphs[g]
		rp, err := app.RemainingPath(g)
		if err != nil {
			return nil, err
		}
		n := int64(horizon / tg.Period)
		if n == 0 {
			n = 1
		}
		for inst := int64(0); inst < n; inst++ {
			base := units.Time(int64(tg.Period) * inst)
			for _, id := range tg.Acts {
				a := app.Act(id)
				if !a.IsTT() {
					continue
				}
				pend := 0
				for _, p := range a.Preds {
					if app.Act(p).IsTT() {
						pend++
					}
				}
				nd := &node{
					key:      refKey{id, int(inst)},
					release:  base.Add(a.Release),
					remain:   rp[id],
					pendPred: pend,
				}
				nd.asap = nd.release
				nodes[nd.key] = nd
				if pend == 0 {
					ready = append(ready, nd)
				}
			}
		}
	}

	finish := func(nd *node, f units.Time) {
		a := app.Act(nd.key.act)
		for _, s := range a.Succs {
			if !app.Act(s).IsTT() {
				continue
			}
			sn, ok := nodes[refKey{s, nd.key.inst}]
			if !ok {
				continue
			}
			if f > sn.asap {
				sn.asap = f
			}
			sn.pendPred--
			if sn.pendPred == 0 {
				ready = append(ready, sn)
			}
		}
	}

	var trialAn *analysis.Analyzer
	if opts.PlacementCandidates > 1 {
		trialAn = analysis.NewReusable(sys, opts.Analysis)
	}

	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if a.remain != b.remain {
				return a.remain > b.remain
			}
			if a.asap != b.asap {
				return a.asap < b.asap
			}
			if a.key.act != b.key.act {
				return a.key.act < b.key.act
			}
			return a.key.inst < b.key.inst
		})
		nd := ready[0]
		ready = ready[1:]
		a := app.Act(nd.key.act)

		if a.IsTask() {
			start, err := refPlaceTask(cfg, table, trialAn, nd.key, a, nd.asap, opts)
			if err != nil {
				return nil, err
			}
			finish(nd, start.Add(a.C))
		} else {
			e, err := table.PlaceMessage(app, nd.key.act, nd.key.inst, nd.asap)
			if err != nil {
				return nil, fmt.Errorf("sched: %w", err)
			}
			finish(nd, e.Delivery)
		}
	}
	return table, nil
}

// refPlaceTask is the reference schedule_TT_task.
func refPlaceTask(cfg *flexray.Config, table *schedule.Table, trialAn *analysis.Analyzer,
	key refKey, a *model.Activity, asap units.Time, opts sched.Options) (units.Time, error) {

	k := opts.PlacementCandidates
	if k <= 1 {
		start := table.FirstGap(a.Node, asap, a.C)
		return start, table.PlaceTask(key.act, key.inst, a.Node, start, a.C)
	}
	cands := table.Gaps(a.Node, asap, a.C, k)
	if len(cands) == 0 {
		return 0, fmt.Errorf("sched: no gap for task %q on node %d", a.Name, a.Node)
	}
	bestIdx := 0
	bestCost := 0.0
	for i, start := range cands {
		trial := table.Clone()
		if err := trial.PlaceTask(key.act, key.inst, a.Node, start, a.C); err != nil {
			continue
		}
		trialAn.Reset(cfg, trial)
		res := trialAn.Run()
		if i == 0 || res.Cost < bestCost {
			bestIdx, bestCost = i, res.Cost
		}
	}
	start := cands[bestIdx]
	return start, table.PlaceTask(key.act, key.inst, a.Node, start, a.C)
}

// tableDiff describes the first difference between a Plan build and a
// reference build, or returns "" when they agree on the error text, the
// entries, every node's busy intervals, every activity's entry indices
// and every node's supply function.
func tableDiff(sys *model.System, got *schedule.Table, gerr error, want *schedule.Table, werr error) string {
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	}
	if werr != nil {
		return ""
	}
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		return fmt.Sprintf("Tasks\n got %+v\nwant %+v", got.Tasks, want.Tasks)
	}
	if !reflect.DeepEqual(got.Msgs, want.Msgs) {
		return fmt.Sprintf("Msgs\n got %+v\nwant %+v", got.Msgs, want.Msgs)
	}
	for n := model.NodeID(0); int(n) < sys.Platform.NumNodes; n++ {
		if !reflect.DeepEqual(got.Busy(n), want.Busy(n)) {
			return fmt.Sprintf("Busy(%d)\n got %v\nwant %v", n, got.Busy(n), want.Busy(n))
		}
	}
	for a := range sys.App.Acts {
		id := model.ActID(a)
		if g, w := got.TaskEntryIndices(id), want.TaskEntryIndices(id); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("TaskEntryIndices(%d) = %v, want %v", id, g, w)
		}
		if g, w := got.MsgEntryIndices(id), want.MsgEntryIndices(id); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("MsgEntryIndices(%d) = %v, want %v", id, g, w)
		}
	}
	for n := model.NodeID(0); int(n) < sys.Platform.NumNodes; n++ {
		if d := availDiff(got.Availability(n), want.Availability(n)); d != "" {
			return fmt.Sprintf("Availability(%d): %s", n, d)
		}
	}
	return ""
}

// availDiff compares two supply functions by their period, busy total
// and critical-instant offsets, and by FreeIn and Advance sampled from
// every offset, a third of a period later and one period later.
func availDiff(got, want *schedule.Availability) string {
	if got.Horizon() != want.Horizon() || got.TotalBusy() != want.TotalBusy() {
		return fmt.Sprintf("horizon %v, busy %v; want %v, %v",
			got.Horizon(), got.TotalBusy(), want.Horizon(), want.TotalBusy())
	}
	if g, w := got.BusyBoundaries(), want.BusyBoundaries(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("BusyBoundaries %v, want %v", g, w)
	}
	h := want.Horizon()
	for _, b := range want.BusyBoundaries() {
		for _, from := range []units.Time{b, b.Add(h / 3), b.Add(h)} {
			if g, w := got.FreeIn(from, from.Add(h/2)), want.FreeIn(from, from.Add(h/2)); g != w {
				return fmt.Sprintf("FreeIn(%v, +%v) = %v, want %v", from, h/2, g, w)
			}
			for _, d := range []units.Duration{1, h / 7, h} {
				if g, w := got.Advance(from, d), want.Advance(from, d); g != w {
					return fmt.Sprintf("Advance(%v, %v) = %v, want %v", from, d, g, w)
				}
			}
		}
	}
	return ""
}

// randomGeometry applies 1-3 random slot-geometry moves to a clone of
// base: static slot count with fresh random owners (which can leave an
// ST sender without a slot), an owner permutation, a static slot
// length scaled down or up (too short a slot cannot carry the larger
// ST frames), and the minislot count and length.
func randomGeometry(rng *rand.Rand, base *flexray.Config, nodes int) *flexray.Config {
	cfg := base.Clone()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			cfg.NumStaticSlots = 1 + rng.Intn(2*nodes)
			cfg.StaticSlotOwner = make([]model.NodeID, cfg.NumStaticSlots)
			for i := range cfg.StaticSlotOwner {
				cfg.StaticSlotOwner[i] = model.NodeID(rng.Intn(nodes))
			}
		case 1:
			rng.Shuffle(len(cfg.StaticSlotOwner), func(i, j int) {
				cfg.StaticSlotOwner[i], cfg.StaticSlotOwner[j] = cfg.StaticSlotOwner[j], cfg.StaticSlotOwner[i]
			})
		case 2:
			cfg.StaticSlotLen = base.StaticSlotLen * units.Duration(1+rng.Intn(6)) / 4
		case 3:
			cfg.NumMinislots = max(1, base.NumMinislots+rng.Intn(201)-50)
		case 4:
			cfg.MinislotLen = base.MinislotLen * units.Duration(1+rng.Intn(3))
		}
	}
	return cfg
}

// TestPlanMatchesReference is the differential check of the compiled
// list scheduler: the cruise case study and synthesised systems, each
// with one Plan reused for every build, over shuffled random slot
// geometries (feasible and ST-infeasible ones interleaved, so a build
// that fails mid-way precedes a successful one and the scratch and
// table reset are part of the test surface), with first-fit and
// holistic placement. Every table must equal the reference build
// exactly. tableDiff queries every node's availability after each
// build, so the next build on the Plan must mark those supply functions
// stale and rebuild them.
func TestPlanMatchesReference(t *testing.T) {
	copts := core.DefaultOptions()
	copts.DYNGridCap = 8

	type system struct {
		name string
		sys  *model.System
	}
	systems := []system{{"cruise", cruise.MustSystem()}}
	for _, tc := range []struct {
		nodes int
		seed  int64
	}{{2, 3}, {3, 11}, {4, 29}} {
		sys, err := synth.Generate(synth.DefaultParams(tc.nodes, tc.seed))
		if err != nil {
			t.Fatalf("generate(%d,%d): %v", tc.nodes, tc.seed, err)
		}
		systems = append(systems, system{fmt.Sprintf("synth(%d,%d)", tc.nodes, tc.seed), sys})
	}

	built, failed := 0, 0
	for si, s := range systems {
		bbc, err := core.BBC(s.sys, copts)
		if err != nil {
			t.Fatalf("%s: BBC: %v", s.name, err)
		}
		rng := rand.New(rand.NewSource(int64(si) + 1))
		cfgs := []*flexray.Config{bbc.Config}
		for len(cfgs) < 30 {
			cfgs = append(cfgs, randomGeometry(rng, bbc.Config, s.sys.Platform.NumNodes))
		}
		plan := sched.NewPlan(s.sys)
		for _, pc := range []int{1, 3} {
			opts := copts.Sched
			opts.PlacementCandidates = pc
			rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
			n := len(cfgs)
			if pc > 1 {
				n = 10 // holistic placement runs the analysis per candidate gap
			}
			for i, cfg := range cfgs[:n] {
				got, gerr := plan.BuildTable(cfg, opts)
				want, werr := refBuildTable(s.sys, cfg, opts)
				if d := tableDiff(s.sys, got, gerr, want, werr); d != "" {
					t.Fatalf("%s, PlacementCandidates %d, build %d: %s\nconfig: %+v", s.name, pc, i, d, cfg)
				}
				if werr != nil {
					failed++
				} else {
					built++
				}
			}
		}
	}
	if built < 40 || failed < 5 {
		t.Fatalf("geometries exercised %d successful and %d failed builds, want >= 40 and >= 5", built, failed)
	}
}

// TestPlanReportsCyclicGraph pins the construction error: a cyclic task
// graph fails every build with the reference's error text.
func TestPlanReportsCyclicGraph(t *testing.T) {
	sys := cruise.MustSystem().Clone()
	id := sys.App.Graphs[0].Acts[0]
	a := sys.App.Act(id)
	a.Preds = append(a.Preds, id)
	a.Succs = append(a.Succs, id)
	cfg := &flexray.Config{
		StaticSlotLen: 100 * us, NumStaticSlots: 1, StaticSlotOwner: []model.NodeID{0},
		MinislotLen: 10 * us, NumMinislots: 10, FrameID: map[model.ActID]int{},
	}
	plan := sched.NewPlan(sys)
	for i := 0; i < 2; i++ {
		got, gerr := plan.BuildTable(cfg, sched.DefaultOptions())
		want, werr := refBuildTable(sys, cfg, sched.DefaultOptions())
		if werr == nil {
			t.Fatal("reference accepted a cyclic graph")
		}
		if d := tableDiff(sys, got, gerr, want, werr); d != "" {
			t.Fatalf("build %d: %s", i, d)
		}
	}
}
