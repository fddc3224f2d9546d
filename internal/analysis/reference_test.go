package analysis_test

// This file retains the pre-flat-layout holistic analysis — the
// maps-and-pointers implementation the flat, index-addressed Analyzer
// replaced — as an executable reference specification. refAnalyzer is
// a near-verbatim port of that code onto the public API: during the
// fixpoint, response times live in the Result map and jitters in a map
// of the reference's own, DYN interference environments are
// per-message heap objects, and nothing is pooled. The differential test below drives both implementations
// over randomly synthesised systems and randomly perturbed
// configurations and requires identical output, bit for bit.

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/flexray/flexraytest"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/synth"
	"repro/internal/units"
)

// refAnalyzer is the reference implementation's state: one analysis of
// one (system, config, table, options) tuple.
type refAnalyzer struct {
	sys   *model.System
	cfg   *flexray.Config
	table *schedule.Table
	opts  analysis.Options

	fpsByNode map[model.NodeID][]model.ActID
	dynMsgs   []model.ActID
	envs      map[model.ActID]*refEnv
	// j maps event-triggered activities to their release jitter
	// (filled by run).
	j map[model.ActID]units.Duration
}

// newRefAnalyzer binds the reference analysis to one input.
func newRefAnalyzer(sys *model.System, cfg *flexray.Config, table *schedule.Table, opts analysis.Options) *refAnalyzer {
	a := &refAnalyzer{
		sys: sys, cfg: cfg, table: table, opts: opts,
		fpsByNode: map[model.NodeID][]model.ActID{},
		envs:      map[model.ActID]*refEnv{},
	}
	for _, id := range sys.App.Tasks(int(model.FPS)) {
		n := sys.App.Act(id).Node
		a.fpsByNode[n] = append(a.fpsByNode[n], id)
	}
	for n := range a.fpsByNode {
		ids := a.fpsByNode[n]
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0; j-- {
				pi, pj := sys.App.Act(ids[j]).Priority, sys.App.Act(ids[j-1]).Priority
				if pi > pj || (pi == pj && ids[j] < ids[j-1]) {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				} else {
					break
				}
			}
		}
	}
	a.dynMsgs = sys.App.Messages(int(model.DYN))
	return a
}

// interferers lists the reference's interferers of id: an FPS task's
// higher-priority run, or a DYN message's hp(m) followed by its lf(m)
// items, as the fixpoint reads them.
func (a *refAnalyzer) interferers(id model.ActID) []model.ActID {
	act := a.sys.App.Act(id)
	var out []model.ActID
	switch {
	case act.IsTask() && act.Policy == model.FPS:
		for _, h := range a.fpsByNode[act.Node] {
			if h == id {
				break
			}
			out = append(out, h)
		}
	case act.IsMessage() && act.Class == model.DYN:
		fid, ok := a.cfg.FrameID[id]
		if !ok {
			return nil
		}
		env := a.dynEnv(act, fid)
		out = append(out, env.hp...)
		for _, g := range env.lfGroups {
			for _, it := range g {
				out = append(out, it.id)
			}
		}
	}
	return out
}

func (a *refAnalyzer) cap(id model.ActID) units.Duration {
	d := a.sys.App.Deadline(id)
	t := a.sys.App.Period(id)
	m := units.Max(d, t)
	f := a.opts.DivergenceFactor
	if f <= 0 {
		f = 8
	}
	return units.Duration(int64(m) * int64(f))
}

// refResult is the reference's result: the Result of the map-based
// analysis, whose response times were a map the fixpoint read and
// wrote.
type refResult struct {
	R           map[model.ActID]units.Duration
	Schedulable bool
	Cost        float64
	Violations  []model.ActID
	Converged   bool
}

// run analyses the bound input and returns the outcome as the flat
// analyzer's dense Result, for a comparison of the dense storage.
func (a *refAnalyzer) run() *analysis.Result {
	r := a.fixpoint()
	return analysis.ResultForTest(len(a.sys.App.Acts), r.R, r.Schedulable, r.Cost, r.Violations, r.Converged)
}

func (a *refAnalyzer) fixpoint() *refResult {
	app := &a.sys.App
	res := &refResult{
		R:         make(map[model.ActID]units.Duration, len(app.Acts)),
		Converged: true,
	}
	a.j = make(map[model.ActID]units.Duration, len(app.Acts))
	for i := range app.Acts {
		act := &app.Acts[i]
		if !act.IsTT() {
			continue
		}
		res.R[act.ID] = a.tableResponse(act)
	}
	maxIter := a.opts.MaxOuterIter
	if maxIter <= 0 {
		maxIter = 64
	}
	for iter := 0; ; iter++ {
		changed := false
		for g := range app.Graphs {
			order, err := app.TopoOrder(g)
			if err != nil {
				res.Schedulable = false
				res.Cost = 1e18
				return res
			}
			for _, id := range order {
				act := app.Act(id)
				if act.IsTT() {
					continue
				}
				j := a.releaseJitter(act, res)
				var r units.Duration
				if act.IsTask() {
					r = a.fpsResponse(act, j, res)
				} else {
					r = a.dynResponse(act, j, res)
				}
				if a.j[id] != j || res.R[id] != r {
					a.j[id] = j
					res.R[id] = r
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter >= maxIter {
			res.Converged = false
			break
		}
	}
	a.finish(res)
	return res
}

func (a *refAnalyzer) releaseJitter(act *model.Activity, res *refResult) units.Duration {
	j := act.Release
	for _, p := range act.Preds {
		if r, ok := res.R[p]; ok && r > j {
			j = r
		}
	}
	return j
}

func (a *refAnalyzer) tableResponse(act *model.Activity) units.Duration {
	period := a.sys.App.Period(act.ID)
	var worst units.Duration
	if act.IsTask() {
		for _, i := range a.table.TaskEntryIndices(act.ID) {
			e := &a.table.Tasks[i]
			release := units.Time(int64(period) * int64(e.Instance))
			if d := units.Duration(e.End - release); d > worst {
				worst = d
			}
		}
	} else {
		for _, i := range a.table.MsgEntryIndices(act.ID) {
			e := &a.table.Msgs[i]
			release := units.Time(int64(period) * int64(e.Instance))
			if d := units.Duration(e.Delivery - release); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func (a *refAnalyzer) finish(res *refResult) {
	app := &a.sys.App
	var f1, f2 float64
	for i := range app.Acts {
		act := &app.Acts[i]
		r, ok := res.R[act.ID]
		if !ok {
			continue
		}
		d := app.Deadline(act.ID)
		diff := float64(r-d) / float64(units.Microsecond)
		if r > d {
			f1 += diff
			res.Violations = append(res.Violations, act.ID)
		}
		f2 += diff
	}
	if !res.Converged {
		res.Schedulable = false
	} else {
		res.Schedulable = len(res.Violations) == 0
	}
	if f1 > 0 {
		res.Cost = f1
	} else {
		res.Cost = f2
	}
}

func (a *refAnalyzer) fpsResponse(act *model.Activity, jitter units.Duration, res *refResult) units.Duration {
	av := a.table.Availability(act.Node)
	var hp []model.ActID
	for _, id := range a.fpsByNode[act.Node] {
		if id == act.ID {
			break
		}
		hp = append(hp, id)
	}
	bound := a.cap(act.ID)
	var worst units.Duration
	for _, phi := range av.BusyBoundaries() {
		w := a.busyWindow(act, hp, phi, bound, res)
		if w > worst {
			worst = w
		}
		if worst >= bound {
			break
		}
	}
	return units.SatAdd(jitter, worst)
}

func (a *refAnalyzer) busyWindow(act *model.Activity, hp []model.ActID, phi units.Time, bound units.Duration, res *refResult) units.Duration {
	app := &a.sys.App
	av := a.table.Availability(act.Node)
	w := act.C
	for iter := 0; iter < 1000; iter++ {
		demand := act.C
		for _, h := range hp {
			ha := app.Act(h)
			n := units.CeilDiv(int64(w)+int64(a.j[h]), int64(app.Period(h)))
			demand = units.SatAdd(demand, units.Duration(n)*ha.C)
		}
		end := av.Advance(phi, demand)
		if units.Duration(end) >= units.Infinite {
			return bound
		}
		next := units.Duration(end - phi)
		if next > bound {
			return bound
		}
		if next <= w {
			return w
		}
		w = next
	}
	return bound
}

// refEnv is the reference interference environment of one DYN message.
type refEnv struct {
	need     int
	hp       []model.ActID
	lfGroups [][]refLfItem
}

type refLfItem struct {
	fid   int
	id    model.ActID
	extra int
}

func (a *refAnalyzer) dynResponse(act *model.Activity, jitter units.Duration, res *refResult) units.Duration {
	fid, ok := a.cfg.FrameID[act.ID]
	if !ok || a.cfg.NumMinislots <= 0 {
		return a.cap(act.ID)
	}
	need := a.fillNeed(act)
	if need <= 0 {
		return a.cap(act.ID)
	}
	env, ok := a.envs[act.ID]
	if !ok {
		env = a.dynEnv(act, fid)
		a.envs[act.ID] = env
	}
	env.need = need
	bound := a.cap(act.ID)
	cycle := a.cfg.Cycle()
	msLen := a.cfg.MinislotLen
	sigma := cycle - a.cfg.STBus() - units.Duration(fid-1)*msLen

	t := units.Duration(0)
	var w units.Duration
	for iter := 0; iter < 10000; iter++ {
		filled, leftover := a.fillCycles(env, t, res)
		wPrime := a.cfg.STBus() + units.Duration(fid-1+leftover)*msLen
		w = units.SatAdd(sigma, units.SatAdd(units.Duration(filled)*cycle, wPrime))
		if w > bound {
			return bound
		}
		if w <= t {
			break
		}
		t = w
	}
	return units.SatAdd(jitter, units.SatAdd(w, act.C))
}

func (a *refAnalyzer) fillNeed(act *model.Activity) int {
	fid := a.cfg.FrameID[act.ID]
	switch a.cfg.Policy {
	case flexray.LatestTxPerNode:
		return a.cfg.PLatestTx(&a.sys.App, act.Node) - fid + 1
	default:
		s := a.cfg.SizeInMinislots(act.C)
		return a.cfg.NumMinislots - s - fid + 2
	}
}

func (a *refAnalyzer) dynEnv(act *model.Activity, fid int) *refEnv {
	app := &a.sys.App
	env := &refEnv{}
	var flat []refLfItem
	for _, m := range a.dynMsgs {
		if m == act.ID {
			continue
		}
		other := app.Act(m)
		ofid := a.cfg.FrameID[m]
		switch {
		case ofid == fid:
			if other.Priority > act.Priority ||
				(other.Priority == act.Priority && m < act.ID) {
				env.hp = append(env.hp, m)
			}
		case ofid < fid:
			if e := a.cfg.SizeInMinislots(other.C) - 1; e > 0 {
				flat = append(flat, refLfItem{fid: ofid, id: m, extra: e})
			}
		}
	}
	sort.Slice(flat, func(i, j int) bool {
		x, y := &flat[i], &flat[j]
		if x.fid != y.fid {
			return x.fid < y.fid
		}
		if x.extra != y.extra {
			return x.extra > y.extra
		}
		return x.id < y.id
	})
	for i := 0; i < len(flat); {
		j := i
		for j < len(flat) && flat[j].fid == flat[i].fid {
			j++
		}
		env.lfGroups = append(env.lfGroups, flat[i:j])
		i = j
	}
	return env
}

func (a *refAnalyzer) instances(m model.ActID, t units.Duration, res *refResult) int64 {
	period := a.sys.App.Period(m)
	n := units.CeilDiv(int64(t)+int64(a.j[m]), int64(period))
	if n < 0 {
		return 0
	}
	return n
}

func (a *refAnalyzer) fillCycles(env *refEnv, t units.Duration, res *refResult) (filled int64, leftover int) {
	var hpFill int64
	for _, m := range env.hp {
		hpFill += a.instances(m, t, res)
	}
	budgets := make([][]int64, len(env.lfGroups))
	for gi, g := range env.lfGroups {
		budgets[gi] = make([]int64, len(g))
		for ii, it := range g {
			budgets[gi][ii] = a.instances(it.id, t, res)
		}
	}
	var lfFill int64
	if a.opts.ExactFill {
		var exact bool
		lfFill, exact = refExactFill(env, budgets, a.opts.FillNodeCap)
		if !exact {
			lfFill = refGreedyFill(env, budgets)
		}
	} else {
		lfFill = refGreedyFill(env, budgets)
	}
	leftover = refLeftoverExtras(env, budgets)
	return hpFill + lfFill, leftover
}

type refPick struct {
	gi, ii int
	extra  int
}

// refGreedyFill is the per-cycle greedy fill: one refPickCycle and one
// budget decrement per filled cycle. The flat analyzer fills whole runs
// of identical cycles at once; TestRunLengthFillMatchesPerCycle pins it
// to this loop.
func refGreedyFill(env *refEnv, budgets [][]int64) int64 {
	var filled int64
	for {
		picks, total := refPickCycle(env, budgets)
		if total < env.need {
			return filled
		}
		for _, p := range picks {
			budgets[p.gi][p.ii]--
		}
		filled++
	}
}

func refPickCycle(env *refEnv, budgets [][]int64) ([]refPick, int) {
	var cands []refPick
	for gi, g := range env.lfGroups {
		for ii, it := range g {
			if budgets[gi][ii] > 0 {
				cands = append(cands, refPick{gi, ii, it.extra})
				break
			}
		}
	}
	// Candidates arrive in group (FrameID) order; the stable sort
	// breaks extra ties by it.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].extra > cands[j].extra })
	var picks []refPick
	total := 0
	for _, c := range cands {
		if total >= env.need {
			break
		}
		picks = append(picks, c)
		total += c.extra
	}
	if total < env.need {
		return nil, total
	}
	last := &picks[len(picks)-1]
	base := total - last.extra
	g := env.lfGroups[last.gi]
	for ii := len(g) - 1; ii > last.ii; ii-- {
		if budgets[last.gi][ii] > 0 && base+g[ii].extra >= env.need {
			total = base + g[ii].extra
			last.ii, last.extra = ii, g[ii].extra
			break
		}
	}
	return picks, total
}

func refLeftoverExtras(env *refEnv, budgets [][]int64) int {
	lim := env.need - 1
	total := 0
	for gi, g := range env.lfGroups {
		for ii, it := range g {
			if budgets[gi][ii] <= 0 {
				continue
			}
			if total+it.extra <= lim {
				total += it.extra
				break
			}
		}
	}
	if total > lim {
		total = lim
	}
	return total
}

func refExactFill(env *refEnv, budgets [][]int64, nodeCap int) (int64, bool) {
	b := make([][]int64, len(budgets))
	for i := range budgets {
		b[i] = append([]int64(nil), budgets[i]...)
	}
	nodes := 0
	var best int64
	exact := true

	totalExtras := func() int64 {
		var s int64
		for gi, g := range env.lfGroups {
			for ii, it := range g {
				s += b[gi][ii] * int64(it.extra)
			}
		}
		return s
	}

	var fill func(done int64)
	fill = func(done int64) {
		if done > best {
			best = done
		}
		nodes++
		if nodes > nodeCap {
			exact = false
			return
		}
		if ub := done + totalExtras()/int64(env.need); ub <= best {
			return
		}
		var choose func(gi, sum int, picks []refPick)
		choose = func(gi, sum int, picks []refPick) {
			if nodes > nodeCap {
				exact = false
				return
			}
			if sum >= env.need {
				for _, p := range picks {
					b[p.gi][p.ii]--
				}
				fill(done + 1)
				for _, p := range picks {
					b[p.gi][p.ii]++
				}
				return
			}
			if gi >= len(env.lfGroups) {
				return
			}
			choose(gi+1, sum, picks)
			seen := -1
			for ii, it := range env.lfGroups[gi] {
				if b[gi][ii] <= 0 || it.extra == seen {
					continue
				}
				seen = it.extra
				nodes++
				choose(gi+1, sum+it.extra, append(picks, refPick{gi, ii, it.extra}))
			}
		}
		choose(0, 0, nil)
	}
	fill(0)
	return best, exact
}

// TestFlatAnalyzerMatchesReference is the differential quick-check of
// the flat analyzer: randomly synthesised systems, randomly perturbed
// configurations, one long-lived flat Analyzer (so Reset invalidation
// is part of the test surface) against the retained reference
// implementation. Every Result and every activity's jitter must match
// bit for bit, and the Eq. (2)-(3) breakdown of every DYN message,
// saturated or not, must reproduce the analysed response exactly. Interferers must list, for
// every FPS task and DYN message, the ids the reference fixpoint reads
// the jitters of, in the reference's order.
func TestFlatAnalyzerMatchesReference(t *testing.T) {
	copts := core.DefaultOptions()
	copts.DYNGridCap = 8

	for _, tc := range []struct {
		nodes int
		seed  int64
	}{{2, 3}, {3, 11}, {4, 29}} {
		sys, err := synth.Generate(synth.DefaultParams(tc.nodes, tc.seed))
		if err != nil {
			t.Fatalf("generate(%d,%d): %v", tc.nodes, tc.seed, err)
		}
		bbc, err := core.BBC(sys, copts)
		if err != nil {
			t.Fatalf("BBC(%d,%d): %v", tc.nodes, tc.seed, err)
		}
		base := bbc.Config
		dyn := sys.App.Messages(int(model.DYN))
		rng := rand.New(rand.NewSource(tc.seed * 1000003))

		greedyOpts := analysis.DefaultOptions()
		exactOpts := greedyOpts
		exactOpts.ExactFill = true
		exactOpts.FillNodeCap = 400 // small, so the fallback path runs too

		flat := map[bool]*analysis.Analyzer{
			false: analysis.NewReusable(sys, greedyOpts),
			true:  analysis.NewReusable(sys, exactOpts),
		}
		schedOpts := copts.Sched

		checked := 0
		for trial := 0; trial < 60; trial++ {
			cfg := flexraytest.Perturb(rng, base, dyn)
			table, err := sched.BuildTable(sys, cfg, schedOpts)
			if err != nil {
				continue
			}
			exact := trial%3 == 0
			aopts := greedyOpts
			if exact {
				aopts = exactOpts
			}
			an := flat[exact]
			an.Reset(cfg, table)
			got := an.Run()
			ref := newRefAnalyzer(sys, cfg, table, aopts)
			want := ref.run()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("system (%d nodes, seed %d) trial %d (exact=%v):\nflat: %+v\nref:  %+v\nconfig: %+v",
					tc.nodes, tc.seed, trial, exact, got, want, cfg)
			}
			for i := range sys.App.Acts {
				id := sys.App.Acts[i].ID
				if got, want := an.Jitter(id), ref.j[id]; got != want {
					t.Fatalf("system (%d nodes, seed %d) trial %d: Jitter(%d) = %v, reference %v",
						tc.nodes, tc.seed, trial, id, got, want)
				}
			}
			for _, m := range dyn {
				d, ok := an.ExplainDYN(m)
				if !ok {
					continue
				}
				if r, _ := got.Response(m); d.Response != r {
					t.Fatalf("system (%d nodes, seed %d) trial %d: ExplainDYN(%d) response %v != analysed %v",
						tc.nodes, tc.seed, trial, m, d.Response, r)
				}
			}
			for _, id := range append(sys.App.Tasks(int(model.FPS)), dyn...) {
				if got, want := an.Interferers(id), ref.interferers(id); !slices.Equal(got, want) {
					t.Fatalf("system (%d nodes, seed %d) trial %d: Interferers(%d) = %v, reference %v",
						tc.nodes, tc.seed, trial, id, got, want)
				}
			}
			checked++
		}
		if checked < 20 {
			t.Fatalf("system (%d nodes, seed %d): only %d of 60 perturbed configs produced a table", tc.nodes, tc.seed, checked)
		}
	}
}

// TestRunLengthFillMatchesPerCycle pins the run-length greedy fill to
// the per-cycle reference over random environments from two
// distributions. The wide one has up to 24 groups, 1-4 items per group,
// extras 1-8, budgets 0-1000 and needs 1-20. The tie-heavy one has up
// to 40 groups, extras 1-3, budgets 0-50 and needs 1-12, so many
// candidates tie and run out, and the fill re-positions or removes them
// often. The filled count, the leftover extras and every final budget
// must be identical.
func TestRunLengthFillMatchesPerCycle(t *testing.T) {
	for _, d := range []struct {
		name                string
		trials              int
		groups, extra, need int
		budget              int
	}{
		{"wide", 100, 24, 8, 20, 1000},
		{"tie-heavy", 1000, 40, 3, 12, 50},
	} {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < d.trials; trial++ {
			need := 1 + rng.Intn(d.need)
			nGroups := 1 + rng.Intn(d.groups)
			env := &refEnv{need: need}
			extras := make([][]int, nGroups)
			budgets := make([][]int64, nGroups)
			for g := range extras {
				for i := 1 + rng.Intn(4); i > 0; i-- {
					extras[g] = append(extras[g], 1+rng.Intn(d.extra))
				}
				sort.Sort(sort.Reverse(sort.IntSlice(extras[g])))
				var items []refLfItem
				for i, e := range extras[g] {
					items = append(items, refLfItem{fid: g + 1, id: model.ActID(g*10 + i), extra: e})
					budgets[g] = append(budgets[g], int64(rng.Intn(d.budget+1)))
				}
				env.lfGroups = append(env.lfGroups, items)
			}
			filled, leftover, final := analysis.GreedyFillForTest(need, extras, budgets)
			refBudgets := make([][]int64, nGroups)
			for g := range budgets {
				refBudgets[g] = append([]int64(nil), budgets[g]...)
			}
			refFilled := refGreedyFill(env, refBudgets)
			refLeftover := refLeftoverExtras(env, refBudgets)
			if filled != refFilled || leftover != refLeftover || !reflect.DeepEqual(final, refBudgets) {
				t.Fatalf("%s trial %d (need %d, extras %v, budgets %v): run-length (%d, %d, %v), per-cycle (%d, %d, %v)",
					d.name, trial, need, extras, budgets, filled, leftover, final, refFilled, refLeftover, refBudgets)
			}
		}
	}
}
