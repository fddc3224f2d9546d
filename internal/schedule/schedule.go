// Package schedule holds the static schedule table built by the global
// scheduling algorithm: offline-fixed start times for SCS tasks on
// their nodes and slot/cycle assignments for ST messages (Section 2:
// "the CPU in each node holds a schedule table with their transmission
// times", e.g. entry "2/2" = second slot of the second ST cycle).
//
// The table also answers the two queries the holistic analysis needs:
// per-node processor availability (FPS tasks execute only in the slack
// of the SCS schedule) and per-slot occupancy (ST frame packing).
package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// Interval is a half-open busy interval [Start, End) on a node.
type Interval struct {
	Start units.Time
	End   units.Time
}

// Len returns the interval length.
func (iv Interval) Len() units.Duration { return units.Duration(iv.End - iv.Start) }

// TaskEntry records the offline-fixed execution window of one instance
// of an SCS task.
type TaskEntry struct {
	Act      model.ActID
	Instance int // graph instance index within the hyper-period
	Node     model.NodeID
	Start    units.Time
	End      units.Time
}

// MsgEntry records the slot assignment of one instance of an ST
// message: which static slot of which bus cycle carries it, and where
// inside the frame it is packed.
type MsgEntry struct {
	Act      model.ActID
	Instance int
	Cycle    int64          // bus cycle index (0-based)
	Slot     int            // static slot number (1-based)
	Offset   units.Duration // position of the message inside the frame
	TxStart  units.Time     // slot start + Offset
	Delivery units.Time     // slot end: receivers see the frame here
}

type slotKey struct {
	cycle int64
	slot  int
}

// Table is a static schedule over a horizon (the application
// hyper-period). The schedule repeats with period Horizon.
type Table struct {
	Cfg     *flexray.Config
	Horizon units.Duration

	Tasks []TaskEntry
	Msgs  []MsgEntry

	// The per-node and per-activity indexes are dense slices addressed
	// by NodeID and ActID, grown on first use.
	nodeBusy [][]Interval               // sorted, non-overlapping
	taskAt   [][]int                    // indices into Tasks
	msgAt    [][]int                    // indices into Msgs
	slotUsed map[slotKey]units.Duration // packed payload per slot instance

	// slots[n] lists the static slots node n owns, ascending, derived
	// from Cfg by Reset.
	slots [][]int

	// avail memoises the per-node supply functions; Reset and
	// PlaceTask mark them stale, and a stale one is rebuilt into its
	// own buffers on the next query. The memo makes Availability — and
	// with it a Table — unsafe for concurrent use; the evaluation
	// sessions pin each table to one goroutine.
	avail []*Availability
}

// New returns an empty table for the given bus configuration and
// horizon.
func New(cfg *flexray.Config, horizon units.Duration) *Table {
	t := &Table{Horizon: horizon}
	t.Reset(cfg)
	return t
}

// Reset empties the table and rebinds it to cfg, keeping the backing
// arrays of every list and index, so a builder that reuses one table
// places its entries without allocating. Supply functions handed out
// before Reset describe the new, empty table after it.
func (t *Table) Reset(cfg *flexray.Config) {
	t.Cfg = cfg
	t.Tasks = t.Tasks[:0]
	t.Msgs = t.Msgs[:0]
	truncateEach(t.nodeBusy)
	truncateEach(t.taskAt)
	truncateEach(t.msgAt)
	clear(t.slotUsed)
	truncateEach(t.slots)
	for i, o := range cfg.StaticSlotOwner {
		if o >= 0 { // an invalid owner owns nothing
			t.slots = grow(t.slots, int(o))
			t.slots[o] = append(t.slots[o], i+1)
		}
	}
	for _, av := range t.avail {
		if av != nil {
			av.stale = true
		}
	}
}

// truncateEach empties every list of a dense index, keeping the lists'
// backing arrays.
func truncateEach[T any](s [][]T) {
	for i := range s {
		s[i] = s[i][:0]
	}
}

// Reserve makes room for the given numbers of further task and message
// entries, so a builder that knows its instance counts places them
// without regrowing the entry lists or the slot-packing map.
func (t *Table) Reserve(tasks, msgs int) {
	t.Tasks = slices.Grow(t.Tasks, tasks)
	t.Msgs = slices.Grow(t.Msgs, msgs)
	if t.slotUsed == nil {
		t.slotUsed = make(map[slotKey]units.Duration, msgs)
	}
}

// at returns s[i], or the zero value when s is too short.
func at[T any](s []T, i int) T {
	if i < 0 || i >= len(s) {
		var zero T
		return zero
	}
	return s[i]
}

// grow returns s extended with zero values so that s[i] exists.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// PlaceTask reserves [start, start+c) on the node for an SCS task
// instance. It fails if the window overlaps an existing reservation:
// SCS tasks are not preemptable (Section 2).
func (t *Table) PlaceTask(act model.ActID, instance int, node model.NodeID, start units.Time, c units.Duration) error {
	iv := Interval{start, start.Add(c)}
	busy := t.Busy(node)
	i := sort.Search(len(busy), func(i int) bool { return busy[i].End > iv.Start })
	if i < len(busy) && busy[i].Start < iv.End {
		return fmt.Errorf("schedule: task %d overlaps busy interval [%v,%v) on node %d",
			act, busy[i].Start, busy[i].End, node)
	}
	// Insert by hand: slices.Insert allocates once per call when
	// inlined under PGO, even with spare capacity.
	busy = append(busy, Interval{})
	copy(busy[i+1:], busy[i:])
	busy[i] = iv
	t.nodeBusy = grow(t.nodeBusy, int(node))
	t.nodeBusy[node] = busy
	t.Tasks = append(t.Tasks, TaskEntry{act, instance, node, iv.Start, iv.End})
	t.taskAt = grow(t.taskAt, int(act))
	t.taskAt[act] = append(t.taskAt[act], len(t.Tasks)-1)
	if av := at(t.avail, int(node)); av != nil {
		av.stale = true // the node's supply function changed
	}
	return nil
}

// FirstGap returns the earliest start >= earliest at which the node has
// c contiguous free time.
func (t *Table) FirstGap(node model.NodeID, earliest units.Time, c units.Duration) units.Time {
	start := earliest
	for _, iv := range t.Busy(node) {
		if iv.End <= start {
			continue
		}
		if iv.Start >= start.Add(c) {
			break // the gap before iv is wide enough
		}
		start = iv.End
	}
	return start
}

// PlaceMessage assigns an ST message instance to the first static slot
// of its sender node whose start is >= ready (the frame buffer is read
// by the controller at the beginning of the slot, Section 3) and which
// has room left for packing. It returns the resulting entry.
func (t *Table) PlaceMessage(app *model.Application, m model.ActID, instance int, ready units.Time) (MsgEntry, error) {
	a := app.Act(m)
	slots := at(t.slots, int(a.Node))
	if len(slots) == 0 {
		return MsgEntry{}, fmt.Errorf("schedule: node %d of ST message %q owns no static slot", a.Node, a.Name)
	}
	if a.C > t.Cfg.StaticSlotLen {
		return MsgEntry{}, fmt.Errorf("schedule: ST message %q (%v) larger than slot (%v)", a.Name, a.C, t.Cfg.StaticSlotLen)
	}
	// Scan slot instances in time order starting from the cycle
	// containing `ready`. A schedulable message finds a slot within
	// one repetition of the bus schedule; the scan deliberately
	// extends several horizons further so that overloaded
	// configurations (e.g. gigantic bus cycles that starve ST
	// throughput) still produce a schedule — with response times that
	// the cost function punishes — instead of a hard failure.
	cy := t.Cfg.CycleOf(ready)
	if cy < 0 {
		cy = 0
	}
	maxCycle := cy + 4*(int64(units.CeilDiv(int64(t.Horizon), int64(t.Cfg.Cycle())))+1)
	for ; cy <= maxCycle; cy++ {
		for _, slot := range slots {
			start := t.Cfg.StaticSlotStart(cy, slot)
			if start < ready {
				continue
			}
			key := slotKey{cy, slot}
			used := t.slotUsed[key]
			if used+a.C > t.Cfg.StaticSlotLen {
				continue // frame full
			}
			e := MsgEntry{
				Act: m, Instance: instance, Cycle: cy, Slot: slot,
				Offset:   used,
				TxStart:  start.Add(used),
				Delivery: t.Cfg.StaticSlotEnd(cy, slot),
			}
			if t.slotUsed == nil {
				t.slotUsed = map[slotKey]units.Duration{}
			}
			t.slotUsed[key] = used + a.C
			t.Msgs = append(t.Msgs, e)
			t.msgAt = grow(t.msgAt, int(m))
			t.msgAt[m] = append(t.msgAt[m], len(t.Msgs)-1)
			return e, nil
		}
	}
	return MsgEntry{}, fmt.Errorf("schedule: no slot instance for ST message %q after %v", a.Name, ready)
}

// TaskEntries returns the table entries of one SCS task (all
// instances).
func (t *Table) TaskEntries(a model.ActID) []TaskEntry {
	idx := t.TaskEntryIndices(a)
	out := make([]TaskEntry, 0, len(idx))
	for _, i := range idx {
		out = append(out, t.Tasks[i])
	}
	return out
}

// MsgEntries returns the table entries of one ST message (all
// instances).
func (t *Table) MsgEntries(a model.ActID) []MsgEntry {
	idx := t.MsgEntryIndices(a)
	out := make([]MsgEntry, 0, len(idx))
	for _, i := range idx {
		out = append(out, t.Msgs[i])
	}
	return out
}

// TaskEntryIndices returns the indices into Tasks of one SCS task's
// instances, avoiding the entry copies of TaskEntries. The returned
// slice is shared and must not be modified.
func (t *Table) TaskEntryIndices(a model.ActID) []int { return at(t.taskAt, int(a)) }

// MsgEntryIndices returns the indices into Msgs of one ST message's
// instances. The returned slice is shared and must not be modified.
func (t *Table) MsgEntryIndices(a model.ActID) []int { return at(t.msgAt, int(a)) }

// Busy returns the node's busy intervals (sorted, non-overlapping).
// The returned slice must not be modified, and a later PlaceTask on
// the node may change its contents.
func (t *Table) Busy(node model.NodeID) []Interval { return at(t.nodeBusy, int(node)) }

// SlotContent returns the messages packed into the given slot instance,
// in packing order.
func (t *Table) SlotContent(cycle int64, slot int) []MsgEntry {
	var out []MsgEntry
	for _, e := range t.Msgs {
		if e.Cycle == cycle && e.Slot == slot {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// foldedBusy writes the node's busy intervals folded into [0,
// Horizon) into dst, reusing its backing array: intervals that cross the
// horizon are split and wrapped, then sorted and merged in place. The
// static schedule is periodic with the hyper-period, so FPS
// availability queries see this folded, repeating pattern.
func (t *Table) foldedBusy(node model.NodeID, dst []Interval) []Interval {
	dst = dst[:0]
	if t.Horizon <= 0 {
		return append(dst, t.Busy(node)...)
	}
	h := int64(t.Horizon)
	for _, iv := range t.Busy(node) {
		s, e := int64(iv.Start), int64(iv.End)
		for s < e {
			fs := ((s % h) + h) % h
			span := e - s
			if fs+span > h {
				span = h - fs
			}
			dst = append(dst, Interval{units.Time(fs), units.Time(fs + span)})
			s += span
		}
	}
	slices.SortFunc(dst, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	// Merge: wrapping can create adjacency or overlap. The merged
	// prefix never outruns the read position.
	merged := dst[:0]
	for _, iv := range dst {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			if iv.End > merged[n-1].End {
				merged[n-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// Availability precomputes a periodic processor-supply function for the
// node, used by the FPS response-time analysis: how much CPU time is
// free for FPS tasks in any window, given that SCS reservations block
// it.
type Availability struct {
	horizon units.Duration
	busy    []Interval // folded into one period, merged
	// freeBefore[i] = free time in [0, busy[i].Start); the busy time
	// before interval i is busy[i].Start - freeBefore[i].
	freeBefore []units.Duration
	totalBusy  units.Duration
	// boundaries are the candidate critical-instant offsets, computed
	// once: the response-time analysis queries them for every FPS task
	// on every fixpoint iteration.
	boundaries []units.Time
	// stale marks a supply function whose node the table has changed
	// since it was built (Reset, PlaceTask); the next query rebuilds it
	// in place.
	stale bool
}

// Availability returns the supply function for one node, memoised on
// the table (Reset and PlaceTask mark it stale, and a stale one is
// rebuilt in place). The returned pointer stays the node's for the
// table's lifetime. The memo makes this method unsafe for concurrent
// use.
func (t *Table) Availability(node model.NodeID) *Availability {
	if node < 0 {
		return t.buildAvailability(node, &Availability{})
	}
	t.avail = grow(t.avail, int(node))
	av := t.avail[node]
	if av == nil {
		av = &Availability{}
		t.avail[node] = av
	} else if !av.stale {
		return av
	}
	return t.buildAvailability(node, av)
}

// buildAvailability computes the supply function of one node into av,
// reusing av's buffers.
func (t *Table) buildAvailability(node model.NodeID, av *Availability) *Availability {
	av.horizon = t.Horizon
	av.busy = t.foldedBusy(node, av.busy)
	var acc units.Duration
	av.freeBefore = av.freeBefore[:0]
	for _, iv := range av.busy {
		av.freeBefore = append(av.freeBefore, units.Duration(iv.Start)-acc)
		acc += iv.Len()
	}
	av.totalBusy = acc
	av.boundaries = append(av.boundaries[:0], 0)
	for _, iv := range av.busy {
		av.boundaries = append(av.boundaries, iv.Start)
	}
	av.stale = false
	return av
}

// busyBefore returns the busy time inside [0, x) of a single period,
// 0 <= x <= horizon.
func (av *Availability) busyBefore(x units.Time) units.Duration {
	i := sort.Search(len(av.busy), func(i int) bool { return av.busy[i].End >= x })
	b := av.busyPrefixBefore(i)
	if i < len(av.busy) && av.busy[i].Start < x {
		b += units.Duration(x - av.busy[i].Start)
	}
	return b
}

// busyUpTo returns the busy time inside [0, x), treating the schedule
// as periodic with the horizon (horizon > 0); negative instants fold
// like positive ones.
func (av *Availability) busyUpTo(x units.Time) units.Duration {
	h := int64(av.horizon)
	full := int64(x) / h
	rem := int64(x) % h
	if rem < 0 {
		full--
		rem += h
	}
	return units.Duration(full)*av.totalBusy + av.busyBefore(units.Time(rem))
}

// FreeIn returns the processor time not reserved by SCS tasks inside
// the absolute window [a, b), treating the schedule as periodic with
// the horizon.
func (av *Availability) FreeIn(a, b units.Time) units.Duration {
	if b <= a {
		return 0
	}
	if av.horizon <= 0 || len(av.busy) == 0 {
		return units.Duration(b - a)
	}
	return units.Duration(b-a) - (av.busyUpTo(b) - av.busyUpTo(a))
}

// Advance returns the earliest instant e >= from such that the free
// time in [from, e) is at least demand; this is the completion instant
// of an FPS workload of `demand` units released at `from`. It inverts
// the supply function in one step (see complete). It returns
// saturation (Time(Infinite)) if the node never accumulates the
// demand, which happens only when the static schedule leaves no slack
// at all, or when the completion instant lies beyond Infinite.
func (av *Availability) Advance(from units.Time, demand units.Duration) units.Time {
	if demand <= 0 {
		return from
	}
	if av.horizon <= 0 || len(av.busy) == 0 {
		return from.Add(demand)
	}
	return av.complete(units.Duration(from)-av.busyUpTo(from), demand)
}

// AdvanceFromBoundary returns Advance(BusyBoundaries()[i], demand)
// without searching for the free time before the phase: phase 0 has
// none, and busy start k has freeBefore[k] of it. The FPS busy-window
// recurrence calls it on every step.
func (av *Availability) AdvanceFromBoundary(i int, demand units.Duration) units.Time {
	from := av.boundaries[i]
	if demand <= 0 {
		return from
	}
	if av.horizon <= 0 || len(av.busy) == 0 {
		return from.Add(demand)
	}
	var free units.Duration
	if i > 0 {
		free = av.freeBefore[i-1]
	}
	return av.complete(free, demand)
}

// complete returns the instant at which the free time accumulated since
// 0 reaches free+demand, where free is the free time before the release
// instant (negative for instants before 0). Whole periods of free time
// are split off with a floor division, and one binary search over the
// free time before each busy interval finds the gap in which the
// remainder runs out. It needs horizon > 0 and at least one busy
// interval.
func (av *Availability) complete(free, demand units.Duration) units.Time {
	freePerPeriod := int64(av.horizon - av.totalBusy)
	if freePerPeriod <= 0 {
		return units.Time(units.Infinite)
	}
	// Free time never outruns wall time, so a saturated target
	// saturates the result below.
	target := units.SatAdd(free, demand)
	// Split target into q whole periods of free time plus a remainder
	// in (0, freePerPeriod], so a demand that runs out exactly at the
	// end of a period's last gap completes there, not a period later.
	n := int64(target) - 1
	q := n / freePerPeriod
	if n%freePerPeriod < 0 {
		q-- // floor, not truncation, for instants before zero
	}
	rem := units.Duration(int64(target) - q*freePerPeriod)
	// The remainder runs out in the gap before the first busy
	// interval whose preceding free time reaches it (or in the gap
	// after the last one); the busy time before that gap shifts it.
	i, _ := slices.BinarySearch(av.freeBefore, rem)
	h := int64(av.horizon)
	if q > int64(units.Infinite)/h {
		return units.Time(units.Infinite)
	}
	return units.Time(q * h).Add(rem + av.busyPrefixBefore(i))
}

// busyPrefixBefore returns the busy time of one period before busy
// interval i (i may be len(busy): the whole period's busy time).
func (av *Availability) busyPrefixBefore(i int) units.Duration {
	if i == len(av.busy) {
		return av.totalBusy
	}
	return units.Duration(av.busy[i].Start) - av.freeBefore[i]
}

// BusyBoundaries returns candidate critical-instant offsets within one
// period: phase zero and the start of every SCS busy interval. Supply
// is minimal over windows that begin exactly when a reservation starts,
// so these phases dominate all others for the FPS response-time
// maximisation. Phase zero is itself dominated by the first busy start
// s0 when there is one: [0, s0) is free, so for every length x the free
// time in [0, x) is at least the free time in [s0, s0+x), and a
// workload released at 0 never completes later, relative to its
// release, than one released at s0. The FPS analysis therefore skips
// phase zero on a node with reservations. It also skips any phase whose
// busy-window recurrence maps the running maximum to at most itself:
// the recurrence is monotone and starts below that maximum, so its
// least fixpoint cannot exceed it. The list keeps every phase, so that
// element i+1 is the start of busy interval i and reference checks can
// iterate them all. The returned slice is shared and must not be
// modified.
func (av *Availability) BusyBoundaries() []units.Time {
	return av.boundaries
}

// TotalBusy returns the SCS-reserved time in one period.
func (av *Availability) TotalBusy() units.Duration { return av.totalBusy }

// Horizon returns the period of the supply function.
func (av *Availability) Horizon() units.Duration { return av.horizon }
