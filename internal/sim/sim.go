// Package sim is a discrete-event simulator of the complete system:
// per-node real-time kernels (non-preemptable SCS tasks dispatched from
// the schedule table; preemptive fixed-priority FPS tasks running in
// the slack) and the FlexRay bus automaton (static slots with frame
// packing, dynamic slots with minislot counting and the
// latest-transmission check, per-FrameID priority queues in the CHI).
//
// The simulator serves two purposes: it validates the holistic analysis
// (an observed response can never exceed the analysed worst case) and
// it regenerates the paper's illustrative figures cycle by cycle
// (Fig. 1, Fig. 3, Fig. 4).
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

// Options tune a simulation run.
type Options struct {
	// Repetitions is the number of hyper-periods of releases to
	// simulate. Values above 1 require the bus cycle to divide the
	// hyper-period (otherwise the static schedule table cannot be
	// replayed periodically) and return an error if it does not.
	Repetitions int
	// Trace enables recording of bus events (capped at TraceCap).
	Trace    bool
	TraceCap int
}

// drainFactor extends the bus simulation past the last release by
// drainFactor hyper-periods so queued work completes.
const drainFactor = 4

// DefaultOptions simulates one hyper-period (plus the drain).
func DefaultOptions() Options {
	return Options{Repetitions: 1, TraceCap: 4096}
}

// TraceKind classifies bus trace events.
type TraceKind uint8

const (
	// TraceST is a static-segment frame transmission.
	TraceST TraceKind = iota
	// TraceDYN is a dynamic-segment frame transmission.
	TraceDYN
	// TraceMinislot is an unused dynamic slot (one minislot long).
	TraceMinislot
)

// TraceEvent is one bus-level occurrence.
type TraceEvent struct {
	Kind  TraceKind
	Cycle int64
	Slot  int // static slot number or dynamic FrameID
	Start units.Time
	End   units.Time
	Acts  []model.ActID // messages carried (empty for minislots)
}

// Result aggregates a simulation run.
type Result struct {
	// MaxResponse is the largest observed response time per
	// activity, measured from the graph instance release.
	MaxResponse map[model.ActID]units.Duration
	// Completions counts completed instances per activity.
	Completions map[model.ActID]int
	// Unfinished counts activity instances still pending when the
	// simulation drained.
	Unfinished int
	// DeadlineMisses counts observed instance completions after
	// their deadline.
	DeadlineMisses int
	// Trace is the bus trace (if enabled).
	Trace []TraceEvent
}

// event is a scheduled simulator callback.
type event struct {
	t   units.Time
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Simulator runs one system under one configuration and table.
type Simulator struct {
	sys   *model.System
	cfg   *flexray.Config
	table *schedule.Table
	opts  Options

	queue eventQueue
	seq   int64
	now   units.Time

	cpus    []*cpu
	pending map[int][]*pendingMsg // DYN CHI queues per FrameID
	maxFid  int

	res      *Result
	released int // instances released (tasks+messages)
	done     int

	// Join bookkeeping: an ET activity with several predecessors is
	// released only when the last one completes.
	arrived map[joinKey]int
	readyAt map[joinKey]units.Time

	lastRelease units.Time
	drainEnd    units.Time
	hyper       units.Duration
}

type pendingMsg struct {
	act   model.ActID
	inst  int
	ready units.Time
	prio  int
}

type joinKey struct {
	act  model.ActID
	inst int
}

// New prepares a simulator. The table must have been built for the same
// system and configuration (package sched does this).
func New(sys *model.System, cfg *flexray.Config, table *schedule.Table, opts Options) (*Simulator, error) {
	if opts.Repetitions <= 0 {
		opts.Repetitions = 1
	}
	if opts.TraceCap <= 0 {
		opts.TraceCap = 4096
	}
	hyper := sys.App.HyperPeriod()
	if opts.Repetitions > 1 && int64(hyper)%int64(cfg.Cycle()) != 0 {
		return nil, fmt.Errorf("sim: %d repetitions need gdCycle (%v) to divide the hyper-period (%v)",
			opts.Repetitions, cfg.Cycle(), hyper)
	}
	s := &Simulator{
		sys: sys, cfg: cfg, table: table, opts: opts,
		pending: map[int][]*pendingMsg{},
		arrived: map[joinKey]int{},
		readyAt: map[joinKey]units.Time{},
		res: &Result{
			MaxResponse: map[model.ActID]units.Duration{},
			Completions: map[model.ActID]int{},
		},
		hyper: hyper,
	}
	s.maxFid = cfg.MaxFrameID()
	for n := 0; n < sys.Platform.NumNodes; n++ {
		s.cpus = append(s.cpus, newCPU(s, model.NodeID(n)))
	}
	return s, nil
}

func (s *Simulator) at(t units.Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{t, s.seq, fn})
}

// Run executes the simulation and returns the aggregated result.
func (s *Simulator) Run() (*Result, error) {
	app := &s.sys.App

	s.lastRelease = units.Time(int64(s.hyper) * int64(s.opts.Repetitions))
	s.drainEnd = s.lastRelease.Add(units.Duration(int64(s.hyper) * drainFactor))

	// Static schedule: replay table entries for each repetition.
	for rep := 0; rep < s.opts.Repetitions; rep++ {
		shift := units.Duration(int64(s.hyper) * int64(rep))
		for _, e := range s.table.Tasks {
			e := e
			end := e.End.Add(shift)
			inst := e.Instance + rep*s.graphInstances(app.Act(e.Act).Graph)
			s.released++
			s.at(end, func() { s.complete(e.Act, inst, end) })
		}
		for _, e := range s.table.Msgs {
			e := e
			deliver := e.Delivery.Add(shift)
			inst := e.Instance + rep*s.graphInstances(app.Act(e.Act).Graph)
			s.released++
			s.at(deliver, func() { s.complete(e.Act, inst, deliver) })
		}
	}

	// Event-triggered releases: FPS root tasks of every graph
	// instance.
	for g := range app.Graphs {
		tg := &app.Graphs[g]
		n := s.graphInstances(g) * s.opts.Repetitions
		for inst := 0; inst < n; inst++ {
			rel := units.Time(int64(tg.Period) * int64(inst))
			for _, id := range app.Roots(g) {
				a := app.Act(id)
				if !a.IsTask() || a.Policy != model.FPS {
					continue
				}
				id, inst := id, inst
				t := rel.Add(a.Release)
				s.released++
				s.at(t, func() { s.cpus[a.Node].release(id, inst, t) })
			}
		}
	}

	// Bus automaton: chain of dynamic-slot checks, cycle by cycle.
	if s.cfg.NumMinislots > 0 && len(app.Messages(int(model.DYN))) > 0 {
		s.at(s.cfg.DYNStart(0), func() { s.dynSlot(0, 1, 1) })
	}

	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*event)
		if e.t > s.drainEnd {
			break
		}
		s.now = e.t
		e.fn()
	}

	s.res.Unfinished = s.released - s.done
	return s.res, nil
}

func (s *Simulator) graphInstances(g int) int {
	tg := &s.sys.App.Graphs[g]
	n := int64(s.hyper) / int64(tg.Period)
	if n == 0 {
		n = 1
	}
	return int(n)
}

// complete records the completion of an activity instance and releases
// its successors (FPS tasks become ready; DYN messages are enqueued in
// the CHI; TT successors are driven by the table and need no action).
func (s *Simulator) complete(act model.ActID, inst int, t units.Time) {
	app := &s.sys.App
	a := app.Act(act)
	period := app.Period(act)
	g := a.Graph
	localInst := inst % (s.graphInstances(g) * s.opts.Repetitions)
	release := units.Time(int64(period) * int64(localInst))
	resp := units.Duration(t - release)
	if resp > s.res.MaxResponse[act] {
		s.res.MaxResponse[act] = resp
	}
	if resp > app.Deadline(act) {
		s.res.DeadlineMisses++
	}
	s.res.Completions[act]++
	s.done++

	for _, succ := range a.Succs {
		sa := app.Act(succ)
		if sa.IsTT() {
			continue // table-driven
		}
		key := joinKey{succ, inst}
		s.arrived[key]++
		if t > s.readyAt[key] {
			s.readyAt[key] = t
		}
		if s.arrived[key] < len(sa.Preds) {
			continue // waiting for the remaining inputs
		}
		rt := s.readyAt[key]
		switch {
		case sa.IsTask():
			succ, inst := succ, inst
			rt = units.MaxTime(rt, release.Add(sa.Release))
			s.released++
			s.at(rt, func() { s.cpus[sa.Node].release(succ, inst, rt) })
		case sa.IsMessage() && sa.Class == model.DYN:
			fid := s.cfg.FrameID[succ]
			s.released++
			s.enqueueDYN(fid, &pendingMsg{succ, inst, rt, sa.Priority})
		}
	}
}

func (s *Simulator) enqueueDYN(fid int, m *pendingMsg) {
	q := append(s.pending[fid], m)
	sort.SliceStable(q, func(i, j int) bool {
		if q[i].prio != q[j].prio {
			return q[i].prio > q[j].prio
		}
		if q[i].act != q[j].act {
			return q[i].act < q[j].act
		}
		return q[i].inst < q[j].inst
	})
	s.pending[fid] = q
	if fid > s.maxFid {
		s.maxFid = fid
	}
}

// dynSlot processes dynamic slot `fid` of `cycle`, with the minislot
// counter at ms (1-based), exactly as Section 3 describes: the CHI
// buffers are inspected at the beginning of the slot; a ready frame is
// transmitted if it still fits (per the configured policy), stretching
// the slot to the frame length in minislots; otherwise the slot is a
// single minislot.
func (s *Simulator) dynSlot(cycle int64, fid, ms int) {
	nMS := s.cfg.NumMinislots
	if fid > s.maxFid || ms > nMS {
		s.nextCycle(cycle)
		return
	}
	slotStart := s.cfg.DYNStart(cycle).Add(units.Duration(ms-1) * s.cfg.MinislotLen)

	// Highest-priority ready message with this FrameID.
	q := s.pending[fid]
	pick := -1
	for i, m := range q {
		if m.ready <= slotStart {
			pick = i
			break
		}
	}
	if pick < 0 {
		s.trace(TraceEvent{TraceMinislot, cycle, fid, slotStart, slotStart.Add(s.cfg.MinislotLen), nil})
		s.at(slotStart.Add(s.cfg.MinislotLen), func() { s.dynSlot(cycle, fid+1, ms+1) })
		return
	}
	m := q[pick]
	if !s.cfg.FitsAt(&s.sys.App, m.act, ms) {
		// Too late in the segment: the slot degenerates to a
		// minislot and the message waits for the next cycle.
		s.trace(TraceEvent{TraceMinislot, cycle, fid, slotStart, slotStart.Add(s.cfg.MinislotLen), nil})
		s.at(slotStart.Add(s.cfg.MinislotLen), func() { s.dynSlot(cycle, fid+1, ms+1) })
		return
	}
	a := s.sys.App.Act(m.act)
	size := s.cfg.SizeInMinislots(a.C)
	s.pending[fid] = append(q[:pick:pick], q[pick+1:]...)
	deliver := slotStart.Add(a.C)
	slotEnd := slotStart.Add(units.Duration(size) * s.cfg.MinislotLen)
	s.trace(TraceEvent{TraceDYN, cycle, fid, slotStart, slotEnd, []model.ActID{m.act}})
	act, inst := m.act, m.inst
	s.at(deliver, func() { s.complete(act, inst, deliver) })
	s.at(slotEnd, func() { s.dynSlot(cycle, fid+1, ms+size) })
}

// nextCycle chains the bus automaton to the following cycle while there
// is anything left to transmit or releases still to come.
func (s *Simulator) nextCycle(cycle int64) {
	anyPending := false
	for _, q := range s.pending {
		if len(q) > 0 {
			anyPending = true
			break
		}
	}
	next := s.cfg.DYNStart(cycle + 1)
	if next > s.drainEnd {
		return
	}
	if !anyPending && next > s.lastRelease && s.queue.Len() == 0 {
		return
	}
	s.at(next, func() { s.dynSlot(cycle+1, 1, 1) })
}

func (s *Simulator) trace(e TraceEvent) {
	if !s.opts.Trace || len(s.res.Trace) >= s.opts.TraceCap {
		return
	}
	s.res.Trace = append(s.res.Trace, e)
}

// STTrace reconstructs the static-segment part of the bus trace from
// the schedule table (the simulator itself drives ST frames straight
// from the table); used by the protocol-trace example and golden tests.
func (s *Simulator) STTrace(maxCycles int64) []TraceEvent {
	var out []TraceEvent
	byInstance := map[[2]int64][]model.ActID{}
	for _, e := range s.table.Msgs {
		key := [2]int64{e.Cycle, int64(e.Slot)}
		byInstance[key] = append(byInstance[key], e.Act)
	}
	for cy := int64(0); cy < maxCycles; cy++ {
		for slot := 1; slot <= s.cfg.NumStaticSlots; slot++ {
			ev := TraceEvent{
				Kind:  TraceST,
				Cycle: cy, Slot: slot,
				Start: s.cfg.StaticSlotStart(cy, slot),
				End:   s.cfg.StaticSlotEnd(cy, slot),
				Acts:  byInstance[[2]int64{cy, int64(slot)}],
			}
			out = append(out, ev)
		}
	}
	return out
}
