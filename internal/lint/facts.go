package lint

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/units"
)

// Thresholds parameterise the headroom rules. The zero value of any
// field means "use the default"; requests may override individual
// knobs without restating the rest.
type Thresholds struct {
	// NodeUtilWarn is the per-node CPU utilisation above which HDR001
	// warns (utilisation >= 1 is always an error, SYS002).
	NodeUtilWarn float64 `json:"node_util_warn,omitempty"`
	// BusUtilWarn is the bus utilisation above which HDR002 warns.
	BusUtilWarn float64 `json:"bus_util_warn,omitempty"`
	// SlackFracWarn: HDR003 warns when an activity's deadline slack
	// falls below this fraction of its deadline.
	SlackFracWarn float64 `json:"slack_frac_warn,omitempty"`
	// JitterFracWarn: HDR004 warns when inherited release jitter
	// exceeds this fraction of the deadline.
	JitterFracWarn float64 `json:"jitter_frac_warn,omitempty"`
	// SlotFillWarn: HDR005 warns when a static slot instance is
	// packed beyond this fraction of the slot length.
	SlotFillWarn float64 `json:"slot_fill_warn,omitempty"`
	// DYNBusCyclesWarn: HDR006 warns when a DYN message's worst case
	// waits through more than this many fully filled bus cycles.
	DYNBusCyclesWarn int64 `json:"dyn_bus_cycles_warn,omitempty"`
}

// DefaultThresholds returns the production defaults documented in
// OPERATIONS.md.
func DefaultThresholds() Thresholds {
	return Thresholds{
		NodeUtilWarn:     0.85,
		BusUtilWarn:      0.75,
		SlackFracWarn:    0.10,
		JitterFracWarn:   0.50,
		SlotFillWarn:     0.90,
		DYNBusCyclesWarn: 1,
	}
}

// withDefaults fills zero fields from DefaultThresholds, so partially
// specified overrides keep the documented behaviour elsewhere.
func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if t.NodeUtilWarn <= 0 {
		t.NodeUtilWarn = d.NodeUtilWarn
	}
	if t.BusUtilWarn <= 0 {
		t.BusUtilWarn = d.BusUtilWarn
	}
	if t.SlackFracWarn <= 0 {
		t.SlackFracWarn = d.SlackFracWarn
	}
	if t.JitterFracWarn <= 0 {
		t.JitterFracWarn = d.JitterFracWarn
	}
	if t.SlotFillWarn <= 0 {
		t.SlotFillWarn = d.SlotFillWarn
	}
	if t.DYNBusCyclesWarn <= 0 {
		t.DYNBusCyclesWarn = d.DYNBusCyclesWarn
	}
	return t
}

// Options tune fact extraction and policy evaluation.
type Options struct {
	// Params are the physical-layer constants the configuration rules
	// validate against; the zero value means flexray.DefaultParams.
	Params flexray.Params
	// Schedule enables the expensive facts: with a configuration
	// present, a schedule table is built and the holistic analysis
	// run, unlocking the schedule and timing packs. Off, those rules
	// skip — the shape the cheap submission gate uses.
	Schedule bool
	// Sched holds the analysis options.
	Sched sched.Options
	// Thresholds parameterise the headroom rules.
	Thresholds Thresholds
}

// DefaultOptions returns full-depth extraction with the default
// thresholds.
func DefaultOptions() Options {
	return Options{
		Params:     flexray.DefaultParams(),
		Schedule:   true,
		Sched:      sched.DefaultOptions(),
		Thresholds: DefaultThresholds(),
	}
}

func (o Options) withDefaults() Options {
	if o.Params == (flexray.Params{}) {
		o.Params = flexray.DefaultParams()
	}
	o.Thresholds = o.Thresholds.withDefaults()
	return o
}

// SlotOccupancy is the per-slot-instance occupancy fact: which ST
// frames one static slot of one bus cycle carries and how full it is.
type SlotOccupancy struct {
	Cycle int64        `json:"cycle"`
	Slot  int          `json:"slot"`
	Owner model.NodeID `json:"owner"`
	// Payload is the packed frame time; Fill is Payload over the
	// static slot length.
	Payload units.Duration `json:"payload_ns"`
	Fill    float64        `json:"fill"`
	Msgs    []model.ActID  `json:"msgs"`
}

// FrameIDFact groups the DYN messages sharing one FrameID. Sharing
// within a node multiplexes by priority; sharing across nodes is a
// protocol violation the flexray checker reports.
type FrameIDFact struct {
	FrameID int            `json:"frame_id"`
	Msgs    []model.ActID  `json:"msgs"`
	Nodes   []model.NodeID `json:"nodes"`
	// SamePriority reports two sharers on one node with equal
	// priority: the multiplexing order is then undefined.
	SamePriority bool `json:"same_priority"`
}

// DYNInterference is the per-DYN-message fact: the frame's FrameID
// and, when analysis facts exist, the Eq. (2)-(3) breakdown of the
// response the analysis reported. Who delays the message is the
// analyzer's to say (Analyzer.Interferers); the fact does not restate
// it.
type DYNInterference struct {
	Msg     model.ActID `json:"msg"`
	Name    string      `json:"name"`
	FrameID int         `json:"frame_id"`
	// Delay is the Eq. (3) worst-case breakdown; nil without
	// analysis facts.
	Delay *analysis.DYNDelay `json:"delay,omitempty"`
}

// SlackFact is the deadline-slack and jitter-headroom fact of one
// activity under the holistic analysis.
type SlackFact struct {
	Act      model.ActID    `json:"act"`
	Name     string         `json:"name"`
	Deadline units.Duration `json:"deadline_ns"`
	Response units.Duration `json:"response_ns"`
	Jitter   units.Duration `json:"jitter_ns"`
	// Slack is Deadline - Response (negative when the deadline is
	// missed); SlackFrac and JitterFrac are the same relative to the
	// deadline.
	Slack      units.Duration `json:"slack_ns"`
	SlackFrac  float64        `json:"slack_frac"`
	JitterFrac float64        `json:"jitter_frac"`
	Met        bool           `json:"met"`
}

// Facts is the queryable fact base the policy engine evaluates. All
// slices are deterministically ordered so reports are stable.
type Facts struct {
	Sys *model.System
	Cfg *flexray.Config // nil when linting a bare system

	// SysErr caches the structural validation SYS001 explains line by
	// line; Problems are the configuration's protocol violations
	// (flexray.Config.Check), which the CFG rules report by kind.
	SysErr   error
	Problems []flexray.Problem

	// ScheduleAttempted reports that schedule construction ran (or
	// was tried); ScheduleSkip carries the reason when it did not.
	ScheduleAttempted bool
	ScheduleSkip      string
	BuildErr          error
	Table             *schedule.Table
	Res               *analysis.Result

	NodeUtil []float64
	BusUtil  float64
	Slots    []SlotOccupancy
	Frames   []FrameIDFact
	DYN      []DYNInterference
	Slack    []SlackFact

	// Thresholds are the (defaulted) headroom knobs extraction ran
	// with; Evaluate hands them to the headroom rules.
	Thresholds Thresholds
}

// Extract derives the fact base for a system and an optional bus
// configuration. It never panics on hostile input: schedule
// construction is attempted only for structurally valid inputs and a
// construction failure becomes a fact (BuildErr) rather than an error.
func Extract(sys *model.System, cfg *flexray.Config, opts Options) *Facts {
	opts = opts.withDefaults()
	f := &Facts{
		Sys:        sys,
		Cfg:        cfg,
		SysErr:     sys.Validate(),
		NodeUtil:   sys.NodeUtilisation(),
		BusUtil:    sys.BusUtilisation(),
		Thresholds: opts.Thresholds,
	}
	if cfg == nil {
		f.ScheduleSkip = "no bus configuration supplied"
		return f
	}
	f.Problems = cfg.Check(opts.Params, sys)
	f.extractFrameFacts()

	switch {
	case !opts.Schedule:
		f.ScheduleSkip = "schedule facts disabled for this run"
	case f.SysErr != nil:
		f.ScheduleSkip = "system failed structural validation (see SYS001)"
	case len(f.Problems) > 0:
		f.ScheduleSkip = "configuration failed protocol validation (see CFG rules)"
	default:
		f.ScheduleAttempted = true
		f.buildScheduleFacts(opts)
	}
	return f
}

// extractFrameFacts builds the FrameID sharing facts and the parts of
// the DYN facts derivable without a schedule.
func (f *Facts) extractFrameFacts() {
	app := &f.Sys.App
	cfg := f.Cfg
	byFID := map[int][]model.ActID{}
	for _, m := range app.Messages(int(model.DYN)) {
		if fid, ok := cfg.FrameID[m]; ok {
			byFID[fid] = append(byFID[fid], m)
		}
	}
	fids := make([]int, 0, len(byFID))
	for fid := range byFID {
		fids = append(fids, fid)
	}
	sort.Ints(fids)
	for _, fid := range fids {
		msgs := byFID[fid]
		sort.Slice(msgs, func(i, j int) bool { return msgs[i] < msgs[j] })
		fact := FrameIDFact{FrameID: fid, Msgs: msgs}
		nodes := map[model.NodeID]bool{}
		prio := map[model.NodeID]map[int]bool{}
		for _, m := range msgs {
			a := app.Act(m)
			if !nodes[a.Node] {
				nodes[a.Node] = true
				fact.Nodes = append(fact.Nodes, a.Node)
			}
			if prio[a.Node] == nil {
				prio[a.Node] = map[int]bool{}
			}
			if prio[a.Node][a.Priority] {
				fact.SamePriority = true
			}
			prio[a.Node][a.Priority] = true
		}
		sort.Slice(fact.Nodes, func(i, j int) bool { return fact.Nodes[i] < fact.Nodes[j] })
		f.Frames = append(f.Frames, fact)
	}

	// DYN facts, ordered by (FrameID, id) so reports are stable and
	// read in slot order.
	dyn := append([]model.ActID(nil), app.Messages(int(model.DYN))...)
	sort.Slice(dyn, func(i, j int) bool {
		fi, fj := cfg.FrameID[dyn[i]], cfg.FrameID[dyn[j]]
		if fi != fj {
			return fi < fj
		}
		return dyn[i] < dyn[j]
	})
	for _, m := range dyn {
		f.DYN = append(f.DYN, DYNInterference{Msg: m, Name: app.Act(m).Name, FrameID: cfg.FrameID[m]})
	}
}

// buildScheduleFacts constructs the schedule table, runs the holistic
// analysis and derives the occupancy, slack and delay facts. A
// construction failure (or a panic out of hostile-but-validated input)
// is recorded as BuildErr.
func (f *Facts) buildScheduleFacts(opts Options) {
	table, an, res, err := buildRecover(f.Sys, f.Cfg, opts.Sched)
	if err != nil {
		f.BuildErr = err
		return
	}
	f.Table, f.Res = table, res
	f.extractSlotFacts()
	f.extractSlackFacts(an)

	// Eq. (3) breakdowns for the DYN facts, from the analyzer whose
	// Run produced res.
	for i := range f.DYN {
		if d, ok := an.ExplainDYN(f.DYN[i].Msg); ok {
			f.DYN[i].Delay = &d
		}
	}
}

// buildRecover builds the schedule table and runs the analysis once on
// it, returning the analyzer so its Run can be explained.
func buildRecover(sys *model.System, cfg *flexray.Config, opts sched.Options) (t *schedule.Table, an *analysis.Analyzer, r *analysis.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			t, an, r = nil, nil, nil
			err = fmt.Errorf("schedule construction panicked: %v", rec)
		}
	}()
	if t, err = sched.BuildTable(sys, cfg, opts); err != nil {
		return nil, nil, nil, err
	}
	an = analysis.New(sys, cfg, t, opts.Analysis)
	return t, an, an.Run(), nil
}

// extractSlotFacts folds the schedule table's ST placements into
// per-slot-instance occupancy.
func (f *Facts) extractSlotFacts() {
	app := &f.Sys.App
	type key struct {
		cycle int64
		slot  int
	}
	occ := map[key]*SlotOccupancy{}
	var keys []key
	for _, e := range f.Table.Msgs {
		k := key{e.Cycle, e.Slot}
		o := occ[k]
		if o == nil {
			owner := model.NodeID(-1)
			if e.Slot >= 1 && e.Slot <= len(f.Cfg.StaticSlotOwner) {
				owner = f.Cfg.StaticSlotOwner[e.Slot-1]
			}
			o = &SlotOccupancy{Cycle: e.Cycle, Slot: e.Slot, Owner: owner}
			occ[k] = o
			keys = append(keys, k)
		}
		o.Msgs = append(o.Msgs, e.Act)
		if end := e.Offset + app.Act(e.Act).C; end > o.Payload {
			o.Payload = end
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cycle != keys[j].cycle {
			return keys[i].cycle < keys[j].cycle
		}
		return keys[i].slot < keys[j].slot
	})
	for _, k := range keys {
		o := occ[k]
		sort.Slice(o.Msgs, func(i, j int) bool { return o.Msgs[i] < o.Msgs[j] })
		if f.Cfg.StaticSlotLen > 0 {
			o.Fill = float64(o.Payload) / float64(f.Cfg.StaticSlotLen)
		}
		f.Slots = append(f.Slots, *o)
	}
}

// extractSlackFacts derives deadline slack and jitter headroom per
// activity from the analysis result and the jitters of the analyzer
// whose Run produced it, in ActID order.
func (f *Facts) extractSlackFacts(an *analysis.Analyzer) {
	app := &f.Sys.App
	violated := map[model.ActID]bool{}
	for _, id := range f.Res.Violations {
		violated[id] = true
	}
	ids := make([]model.ActID, 0, len(f.Res.R))
	for id := range f.Res.R {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := app.Act(id)
		d := app.Deadline(id)
		r := f.Res.R[id]
		sf := SlackFact{
			Act: id, Name: a.Name,
			Deadline: d, Response: r, Jitter: an.Jitter(id),
			Slack: d - r,
			Met:   !violated[id] && r <= d,
		}
		if d > 0 {
			sf.SlackFrac = float64(sf.Slack) / float64(d)
			sf.JitterFrac = float64(sf.Jitter) / float64(d)
		}
		f.Slack = append(f.Slack, sf)
	}
}
