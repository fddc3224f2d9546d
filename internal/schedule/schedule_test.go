package schedule

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

const (
	us = units.Microsecond
	ms = units.Millisecond
)

// cfg2 returns a 2-node configuration: slots of 100µs (slot1 N0, slot2
// N1), 10 minislots of 10µs, cycle 300µs.
func cfg2() *flexray.Config {
	return &flexray.Config{
		StaticSlotLen:   100 * us,
		NumStaticSlots:  2,
		StaticSlotOwner: []model.NodeID{0, 1},
		MinislotLen:     10 * us,
		NumMinislots:    10,
		FrameID:         map[model.ActID]int{},
		Policy:          flexray.LatestTxPerFrame,
	}
}

// msgSystem builds a system with `n` ST messages from node 0 to node 1,
// each of the given size, all ready at time zero.
func msgSystem(t testing.TB, n int, size units.Duration) *model.System {
	t.Helper()
	b := model.NewBuilder("msgs", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	for i := 0; i < n; i++ {
		snd := b.Task(g, "s"+string(rune('a'+i)), 0, 0, model.SCS)
		rcv := b.PrioTask(g, "r"+string(rune('a'+i)), 1, 0, 1)
		b.Message("m"+string(rune('a'+i)), model.ST, size, snd, rcv, 0)
	}
	return b.MustBuild()
}

func TestPlaceTaskRejectsOverlap(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	if err := tb.PlaceTask(0, 0, 0, 100, 50*us); err != nil {
		t.Fatal(err)
	}
	if err := tb.PlaceTask(1, 0, 0, units.Time(40*us), 20*us); err == nil {
		t.Fatal("overlapping reservation accepted")
	}
	// Adjacent is fine.
	if err := tb.PlaceTask(2, 0, 0, units.Time(50*us)+100, 10*us); err != nil {
		t.Fatalf("adjacent reservation rejected: %v", err)
	}
	// Other node is independent.
	if err := tb.PlaceTask(3, 0, 1, 100, 50*us); err != nil {
		t.Fatalf("other-node reservation rejected: %v", err)
	}
}

func TestFirstGapSkipsBusy(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us)) // [100,200)
	must(tb.PlaceTask(1, 0, 0, units.Time(250*us), 50*us))  // [250,300)

	if got := tb.FirstGap(0, 0, 50*us); got != 0 {
		t.Errorf("gap before busy = %v, want 0", got)
	}
	if got := tb.FirstGap(0, 0, 150*us); got != units.Time(300*us) {
		t.Errorf("150µs gap = %v, want 300µs", got)
	}
	if got := tb.FirstGap(0, units.Time(120*us), 30*us); got != units.Time(200*us) {
		t.Errorf("gap from inside busy = %v, want 200µs", got)
	}
	if got := tb.FirstGap(0, units.Time(210*us), 40*us); got != units.Time(210*us) {
		t.Errorf("gap fitting [200,250) window = %v, want 210µs", got)
	}
}

func TestGapsEnumeratesCandidates(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	if err := tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us); err != nil {
		t.Fatal(err)
	}
	got := tb.Gaps(0, 0, 50*us, 3)
	if len(got) != 2 {
		t.Fatalf("Gaps = %v, want 2 candidates (before + after the block)", got)
	}
	if got[0] != 0 || got[1] != units.Time(200*us) {
		t.Errorf("Gaps = %v, want [0 200µs]", got)
	}
}

func TestPlaceMessagePacksFrames(t *testing.T) {
	sys := msgSystem(t, 3, 40*us)
	tb := New(cfg2(), 10*ms)
	msgs := sys.App.Messages(int(model.ST))
	// 40+40 fits one 100µs slot; the third message spills to the
	// next cycle's slot.
	e1, err := tb.PlaceMessage(&sys.App, msgs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tb.PlaceMessage(&sys.App, msgs[1], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := tb.PlaceMessage(&sys.App, msgs[2], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cycle != 0 || e1.Slot != 1 || e1.Offset != 0 {
		t.Errorf("e1 = %+v", e1)
	}
	if e2.Cycle != 0 || e2.Slot != 1 || e2.Offset != 40*us {
		t.Errorf("e2 = %+v", e2)
	}
	if e3.Cycle != 1 || e3.Slot != 1 || e3.Offset != 0 {
		t.Errorf("e3 should spill to cycle 1: %+v", e3)
	}
	// Delivery at slot end.
	if e1.Delivery != units.Time(100*us) {
		t.Errorf("delivery = %v, want slot end 100µs", e1.Delivery)
	}
	if e3.Delivery != units.Time(400*us) {
		t.Errorf("spilled delivery = %v, want 400µs", e3.Delivery)
	}
}

func TestPlaceMessageHonoursReadiness(t *testing.T) {
	sys := msgSystem(t, 1, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	// Ready just after slot 1 of cycle 0 started: must go to cycle 1.
	e, err := tb.PlaceMessage(&sys.App, m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cycle != 1 {
		t.Errorf("message placed in cycle %d, want 1", e.Cycle)
	}
}

func TestPlaceMessageRequiresSlotOwnership(t *testing.T) {
	sys := msgSystem(t, 1, 40*us)
	cfg := cfg2()
	cfg.StaticSlotOwner = []model.NodeID{1, 1} // node 0 owns nothing
	tb := New(cfg, 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err == nil {
		t.Fatal("placement without slot ownership accepted")
	}
}

func TestPlaceMessageRejectsOversized(t *testing.T) {
	sys := msgSystem(t, 1, 150*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestEntriesLookup(t *testing.T) {
	sys := msgSystem(t, 2, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.PlaceMessage(&sys.App, m, 1, units.Time(5*ms)); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.MsgEntries(m)); got != 2 {
		t.Errorf("MsgEntries = %d instances, want 2", got)
	}
	if err := tb.PlaceTask(9, 0, 0, 0, 10*us); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.TaskEntries(9)); got != 1 {
		t.Errorf("TaskEntries = %d, want 1", got)
	}
	if got := len(tb.SlotContent(0, 1)); got != 1 {
		t.Errorf("SlotContent(0,1) = %d messages", got)
	}
}

func TestAvailabilityFreeIn(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Busy [200,400) and [600,700) within a 1 ms period.
	must(tb.PlaceTask(0, 0, 0, units.Time(200*us), 200*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(600*us), 100*us))
	av := tb.Availability(0)

	cases := []struct {
		a, b units.Time
		want units.Duration
	}{
		{0, units.Time(200 * us), 200 * us}, // all free
		{0, units.Time(400 * us), 200 * us}, // skips busy
		{units.Time(200 * us), units.Time(400 * us), 0},
		{0, units.Time(1 * ms), 700 * us},                       // one full period
		{0, units.Time(2 * ms), 1400 * us},                      // two periods
		{units.Time(900 * us), units.Time(1200 * us), 300 * us}, // wraps
		// [1200,1500) has phase [200,500): 200µs inside the busy
		// block, 100µs free.
		{units.Time(1200 * us), units.Time(1500 * us), 100 * us},
	}
	for _, c := range cases {
		if got := av.FreeIn(c.a, c.b); got != c.want {
			t.Errorf("FreeIn(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAvailabilityAdvance(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	if err := tb.PlaceTask(0, 0, 0, units.Time(200*us), 200*us); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	cases := []struct {
		from   units.Time
		demand units.Duration
		want   units.Time
	}{
		{0, 100 * us, units.Time(100 * us)},
		{0, 200 * us, units.Time(200 * us)},
		{0, 201 * us, units.Time(401 * us)}, // hops the busy block
		{units.Time(250 * us), 50 * us, units.Time(450 * us)},
		{0, 800 * us, units.Time(1 * ms)},     // exactly one period of supply
		{0, 900 * us, units.Time(1100 * us)},  // into the second period
		{0, 1700 * us, units.Time(2100 * us)}, // 800+800+100 across three periods
	}
	for _, c := range cases {
		if got := av.Advance(c.from, c.demand); got != c.want {
			t.Errorf("Advance(%v,%v) = %v, want %v", c.from, c.demand, got, c.want)
		}
	}
}

func TestAdvanceSaturatesWithoutSlack(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	if err := tb.PlaceTask(0, 0, 0, 0, 1*ms); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	if got := av.Advance(0, us); units.Duration(got) < units.Infinite {
		t.Errorf("Advance on a fully booked node = %v, want saturation", got)
	}
}

// Property: FreeIn(from, Advance(from, d)) == d whenever supply exists,
// i.e. Advance is the inverse of the supply function.
func TestAdvanceFreeInInverseProperty(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 150*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(500*us), 250*us))
	av := tb.Availability(0)

	f := func(fromUs uint16, demandUs uint16) bool {
		from := units.Time(int64(fromUs) * int64(us))
		demand := units.Duration(int64(demandUs%2000)+1) * us
		end := av.Advance(from, demand)
		return av.FreeIn(from, end) == demand
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// advanceWalk is the gap-by-gap Advance the one-step inverse replaced,
// kept as the reference it must equal: skip whole periods, then walk
// the folded pattern one gap per loop.
func advanceWalk(av *Availability, from units.Time, demand units.Duration) units.Time {
	if demand <= 0 {
		return from
	}
	if av.horizon <= 0 || len(av.busy) == 0 {
		return from.Add(demand)
	}
	freePerPeriod := av.horizon - av.totalBusy
	if freePerPeriod <= 0 {
		return units.Time(units.Infinite)
	}
	t := from
	if k := int64(demand) / int64(freePerPeriod); k > 1 {
		skip := units.Duration((k - 1) * int64(av.horizon))
		demand -= units.Duration(k-1) * freePerPeriod
		t = t.Add(skip)
	}
	for demand > 0 {
		h := int64(av.horizon)
		rem := int64(t) % h
		if rem < 0 {
			rem += h
		}
		phase := units.Time(rem)
		i := sort.Search(len(av.busy), func(i int) bool { return av.busy[i].End > phase })
		var gapEnd units.Time
		if i >= len(av.busy) {
			gapEnd = units.Time(av.horizon)
		} else if av.busy[i].Start > phase {
			gapEnd = av.busy[i].Start
		} else {
			t = t.Add(units.Duration(av.busy[i].End - phase))
			continue
		}
		free := units.Duration(gapEnd - phase)
		if free >= demand {
			return t.Add(demand)
		}
		demand -= free
		t = t.Add(free)
		if i < len(av.busy) {
			t = t.Add(av.busy[i].Len())
		}
	}
	return t
}

// randomAvailability places up to six random reservations on node 0 of
// a table with a random horizon; reservations may start before zero or
// run past the horizon, so the folded pattern wraps.
func randomAvailability(rng *rand.Rand) *Availability {
	h := units.Duration(2 + rng.Intn(400))
	tb := New(cfg2(), h)
	for n := rng.Intn(7); n > 0; n-- {
		start := units.Time(rng.Int63n(int64(2*h))) - units.Time(h/2)
		// Overlapping reservations are rejected; the rest stand.
		_ = tb.PlaceTask(model.ActID(n), 0, 0, start, units.Duration(1+rng.Int63n(int64(h)/2+1)))
	}
	return tb.Availability(0)
}

// TestAdvanceMatchesWalk pins the one-step inverse against the
// gap-by-gap walk over random folded busy patterns, from instants that
// are negative, inside busy intervals or on their edges, and demands
// that end exactly on a gap edge or span many periods. From a busy
// boundary, AdvanceFromBoundary must agree with both.
func TestAdvanceMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		av := randomAvailability(rng)
		h := int64(av.horizon)
		var edges []units.Time
		for _, iv := range av.busy {
			edges = append(edges, iv.Start, iv.End, iv.Start+1, iv.End-1)
		}
		for q := 0; q < 20; q++ {
			from := units.Time(rng.Int63n(4*h) - 2*h)
			if len(edges) > 0 && rng.Intn(2) == 0 {
				from = edges[rng.Intn(len(edges))] + units.Time(h*(rng.Int63n(5)-2))
			}
			bi := -1
			if rng.Intn(3) == 0 {
				bi = rng.Intn(len(av.boundaries))
				from = av.boundaries[bi]
			}
			var demand units.Duration
			switch rng.Intn(4) {
			case 0:
				demand = units.Duration(rng.Int63n(2*h + 1))
			case 1: // many periods
				demand = units.Duration(rng.Int63n(1_000_000 * h))
			case 2, 3: // ends exactly on a gap edge
				if len(edges) == 0 {
					continue
				}
				edge := edges[rng.Intn(len(edges))] + units.Time(h*rng.Int63n(4))
				if edge <= from {
					edge += units.Time(4 * h)
				}
				demand = av.FreeIn(from, edge)
			}
			want := advanceWalk(av, from, demand)
			if got := av.Advance(from, demand); got != want {
				t.Fatalf("trial %d: busy %v over %d: Advance(%d, %d) = %d, walk %d",
					trial, av.busy, h, from, demand, got, want)
			}
			if bi < 0 {
				continue
			}
			if got := av.AdvanceFromBoundary(bi, demand); got != want {
				t.Fatalf("trial %d: busy %v over %d: AdvanceFromBoundary(%d, %d) = %d, walk %d from %d",
					trial, av.busy, h, bi, demand, got, want, from)
			}
		}
	}
}

// TestAdvanceNearInfiniteDemand: the inverse saturates where the walk
// saturates and stays exact just below Infinite, without overflowing.
func TestAdvanceNearInfiniteDemand(t *testing.T) {
	tb := New(cfg2(), 1000)
	if err := tb.PlaceTask(0, 0, 0, 100, 100); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0) // 900 free per period
	for _, c := range []struct {
		from   units.Time
		demand units.Duration
	}{
		{0, units.Infinite},
		{0, units.Infinite - 1},
		{150, units.Infinite - 1000},
		{-5000, units.Infinite - 1},
		{0, units.Duration((int64(units.Infinite)/1000 - 2) * 900)},
		{999, units.Duration((int64(units.Infinite)/1000 - 3) * 900)},
	} {
		got, want := av.Advance(c.from, c.demand), advanceWalk(av, c.from, c.demand)
		if got != want {
			t.Errorf("Advance(%d, %d) = %d, walk %d", c.from, c.demand, got, want)
		}
		if got < 0 || units.Duration(got) > units.Infinite {
			t.Errorf("Advance(%d, %d) = %d overflowed", c.from, c.demand, got)
		}
		for i, b := range av.BusyBoundaries() {
			if got, want := av.AdvanceFromBoundary(i, c.demand), advanceWalk(av, b, c.demand); got != want {
				t.Errorf("AdvanceFromBoundary(%d, %d) = %d, walk %d", i, c.demand, got, want)
			}
		}
	}
	// One free unit per period: the walk's period skip overflows
	// int64 here, and the inverse must saturate instead.
	tb = New(cfg2(), 1000)
	if err := tb.PlaceTask(0, 0, 0, 0, 999); err != nil {
		t.Fatal(err)
	}
	for _, demand := range []units.Duration{units.Infinite / 2, (1<<64)/1000 + 1, units.Infinite / 999} {
		if got := tb.Availability(0).Advance(0, demand); got != units.Time(units.Infinite) {
			t.Errorf("Advance(0, %d) with 1 free unit per period = %d, want saturation", demand, got)
		}
	}
}

func TestFoldedBusyWrapsAcrossHorizon(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	// A reservation crossing the horizon: [900µs, 1100µs) folds into
	// [900,1000) + [0,100).
	if err := tb.PlaceTask(0, 0, 0, units.Time(900*us), 200*us); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	if got := av.FreeIn(0, units.Time(100*us)); got != 0 {
		t.Errorf("folded head not busy: FreeIn(0,100µs) = %v", got)
	}
	if got := av.FreeIn(units.Time(900*us), units.Time(1*ms)); got != 0 {
		t.Errorf("folded tail not busy: %v", got)
	}
	if got := av.TotalBusy(); got != 200*us {
		t.Errorf("TotalBusy = %v, want 200µs", got)
	}
}

func TestCloneTableIndependence(t *testing.T) {
	sys := msgSystem(t, 2, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	cl := tb.Clone()
	m2 := sys.App.Messages(int(model.ST))[1]
	if _, err := cl.PlaceMessage(&sys.App, m2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceTask(5, 0, 0, 0, 10*us); err != nil {
		t.Fatal(err)
	}
	if len(tb.Msgs) != 1 {
		t.Errorf("clone placement leaked into original: %d messages", len(tb.Msgs))
	}
	if len(tb.Busy(0)) != 0 {
		t.Errorf("clone task reservation leaked into original")
	}
	// Packing state must also be cloned: the original still has room.
	if _, err := tb.PlaceMessage(&sys.App, m2, 0, 0); err != nil {
		t.Fatal(err)
	}
	e := tb.Msgs[1]
	if e.Offset != 40*us {
		t.Errorf("original packing offset = %v, want 40µs", e.Offset)
	}
}

func TestBusyBoundaries(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(500*us), 100*us))
	av := tb.Availability(0)
	b := av.BusyBoundaries()
	if len(b) != 3 {
		t.Fatalf("BusyBoundaries = %v, want 3 (phase 0 + 2 starts)", b)
	}
	if b[0] != 0 || b[1] != units.Time(100*us) || b[2] != units.Time(500*us) {
		t.Errorf("BusyBoundaries = %v", b)
	}
}

// TestResetMatchesNew: a table reset to another configuration and
// refilled equals a new table filled the same way — entries, busy
// intervals, entry indexes, slot packing and supply functions. Supply
// functions queried before the Reset must not survive it (node 0 is
// queried again before the refill places anything on it), nor a later
// PlaceTask on their node. A clone taken before the Reset keeps its
// contents and its slot lists.
func TestResetMatchesNew(t *testing.T) {
	sys := msgSystem(t, 3, 40*us)
	msgs := sys.App.Messages(int(model.ST))
	fill := func(tb *Table, node model.NodeID, shift units.Time) {
		t.Helper()
		if err := tb.PlaceTask(0, 0, node, shift, 100*us); err != nil {
			t.Fatal(err)
		}
		if err := tb.PlaceTask(1, 0, node, shift.Add(300*us), 50*us); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if _, err := tb.PlaceMessage(&sys.App, m, 0, shift); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(what string, got, want *Table) {
		t.Helper()
		if !slices.Equal(got.Tasks, want.Tasks) || !slices.Equal(got.Msgs, want.Msgs) {
			t.Fatalf("%s: entries differ\n got %+v %+v\nwant %+v %+v", what, got.Tasks, got.Msgs, want.Tasks, want.Msgs)
		}
		for n := model.NodeID(0); n < 2; n++ {
			if !slices.Equal(got.Busy(n), want.Busy(n)) {
				t.Fatalf("%s: Busy(%d) = %v, want %v", what, n, got.Busy(n), want.Busy(n))
			}
			if g, w := got.Availability(n), want.Availability(n); !sameAvailability(g, w) {
				t.Fatalf("%s: Availability(%d) = %+v, want %+v", what, n, g, w)
			}
		}
		for a := range sys.App.Acts {
			id := model.ActID(a)
			if !slices.Equal(got.TaskEntryIndices(id), want.TaskEntryIndices(id)) ||
				!slices.Equal(got.MsgEntryIndices(id), want.MsgEntryIndices(id)) {
				t.Fatalf("%s: entry indexes of activity %d differ", what, id)
			}
		}
		for slot := 1; slot <= 2; slot++ {
			if g, w := got.SlotContent(0, slot), want.SlotContent(0, slot); !slices.Equal(g, w) {
				t.Fatalf("%s: SlotContent(0, %d) = %v, want %v", what, slot, g, w)
			}
		}
	}

	tb := New(cfg2(), units.Duration(1*ms))
	fill(tb, 0, 0)
	tb.Availability(0)
	tb.Availability(1)
	cl := tb.Clone()

	swapped := cfg2()
	swapped.StaticSlotOwner = []model.NodeID{1, 0}
	tb.Reset(swapped)
	same("reset", tb, New(swapped, units.Duration(1*ms)))

	fill(tb, 1, units.Time(200*us))
	want := New(swapped, units.Duration(1*ms))
	fill(want, 1, units.Time(200*us))
	same("refill", tb, want)
	for _, x := range []*Table{tb, want} {
		if err := x.PlaceTask(2, 0, 1, units.Time(600*us), 100*us); err != nil {
			t.Fatal(err)
		}
	}
	same("placement after query", tb, want)

	orig := New(cfg2(), units.Duration(1*ms))
	fill(orig, 0, 0)
	same("clone", cl, orig)
	for _, x := range []*Table{cl, orig} {
		if _, err := x.PlaceMessage(&sys.App, msgs[0], 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	same("placement on the clone", cl, orig)
}

// sameAvailability compares two supply functions field by field.
func sameAvailability(a, b *Availability) bool {
	return a.horizon == b.horizon && a.totalBusy == b.totalBusy &&
		slices.Equal(a.busy, b.busy) && slices.Equal(a.freeBefore, b.freeBefore) &&
		slices.Equal(a.boundaries, b.boundaries)
}
