package core

import (
	"encoding/binary"
	"slices"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/units"
)

// sessionTableCap bounds the schedule-table memo of one session; when
// it is reached the whole memo is dropped (a deterministic eviction:
// results never depend on what happened to be cached). Most candidates
// carry a slot geometry the session has not seen: on the cruise
// portfolio with two engine workers, about 85 of the 2350 session
// evaluations are answered by the last-geometry shortcut and about 55
// by the map, and the map is cleared in full 4 times per request. The
// memo saves little there; the sched.Plan is what makes the misses
// cheap.
const sessionTableCap = 512

// Session is a reusable evaluation pipeline for one system under one
// scheduler configuration. It replaces the build-everything-from-scratch
// evaluation (one schedule table plus one fresh Analyzer per candidate)
// with three layers of reuse:
//
//   - a sched.Plan compiles the list scheduler once per system, so a
//     table the session does build runs only the per-configuration
//     scheduling loop;
//   - a resettable analysis.Analyzer keeps the system-dependent state
//     and scratch buffers across candidate configurations, with
//     fine-grained invalidation of the config- and table-derived
//     caches;
//   - a bounded schedule-table memo keyed on the slot geometry (static
//     slot length, count, owners, dynamic segment length) skips table
//     construction entirely for candidates that differ only in their
//     FrameID assignment or minislot granularity — the SA move set and
//     the curve-fitting refinements hit this constantly.
//
// Table memoisation is sound only with first-fit placement
// (PlacementCandidates <= 1), where the table provably depends on the
// geometry alone; with holistic placement the session rebuilds the
// table per candidate and still reuses the analyzer.
//
// Every evaluation is bit-identical to the fresh path
// (sched.Build + analysis.New): the analyses are pure functions of
// (system, config, table, options) and the memoised tables are
// identical to freshly built ones. A Session is not safe for concurrent
// use; the campaign engine pins one to each worker.
type Session struct {
	sys  *model.System
	opts sched.Options
	plan *sched.Plan
	an   *analysis.Analyzer

	tables map[tableKey]tableEntry
	// last short-circuits the memo for back-to-back candidates with
	// identical slot geometry (FrameID-only moves): the comparison
	// works on copied values, so no map key — and no allocation — is
	// needed on that path.
	last struct {
		valid    bool
		slotLen  units.Duration
		numSlots int
		dynBus   units.Duration
		owners   []model.NodeID // snapshot, never aliases a Config
		entry    tableEntry
	}
}

// tableKey is the slot geometry a first-fit schedule table depends on.
// Owners are folded into a string so the key is comparable without
// hashing collisions.
type tableKey struct {
	slotLen  units.Duration
	numSlots int
	dynBus   units.Duration
	owners   string
}

// tableEntry memoises one construction outcome; failed ones (an ST
// message that finds no slot) are remembered too, so infeasible
// geometries fail fast on revisits.
type tableEntry struct {
	table *schedule.Table
	err   error
}

// NewSession builds an evaluation session for one system.
func NewSession(sys *model.System, opts sched.Options) *Session {
	return &Session{
		sys:    sys,
		opts:   opts,
		plan:   sched.NewPlan(sys),
		an:     analysis.NewReusable(sys, opts.Analysis),
		tables: map[tableKey]tableEntry{},
	}
}

// Eval runs one candidate evaluation — schedule table plus holistic
// analysis — and returns the analysis result and its Eq. (5) cost, or
// (nil, infeasibleCost) when no table can be constructed. The returned
// Result is freshly allocated and remains valid after further Eval
// calls; all internal scratch is reused.
func (s *Session) Eval(cfg *flexray.Config) (*analysis.Result, float64) {
	table, err := s.table(cfg)
	if err != nil {
		return nil, infeasibleCost
	}
	s.an.Reset(cfg, table)
	res := s.an.Run()
	return res, res.Cost
}

// table returns the schedule table for cfg, memoised by geometry when
// first-fit placement makes that sound.
func (s *Session) table(cfg *flexray.Config) (*schedule.Table, error) {
	if s.opts.PlacementCandidates > 1 {
		// Holistic placement runs the analysis against the candidate's
		// FrameID assignment while inserting tasks: the table depends
		// on the full configuration and cannot be shared.
		return s.plan.BuildTable(cfg, s.opts)
	}
	if s.last.valid &&
		s.last.slotLen == cfg.StaticSlotLen &&
		s.last.numSlots == cfg.NumStaticSlots &&
		s.last.dynBus == cfg.DYNBus() &&
		slices.Equal(s.last.owners, cfg.StaticSlotOwner) {
		return s.last.entry.table, s.last.entry.err
	}
	key := tableKey{
		slotLen:  cfg.StaticSlotLen,
		numSlots: cfg.NumStaticSlots,
		dynBus:   cfg.DYNBus(),
		owners:   ownerKey(cfg.StaticSlotOwner),
	}
	e, ok := s.tables[key]
	if !ok {
		table, err := s.plan.BuildTable(cfg, s.opts)
		if len(s.tables) >= sessionTableCap {
			clear(s.tables)
		}
		e = tableEntry{table: table, err: err}
		s.tables[key] = e
	}
	s.last.valid = true
	s.last.slotLen = cfg.StaticSlotLen
	s.last.numSlots = cfg.NumStaticSlots
	s.last.dynBus = cfg.DYNBus()
	s.last.owners = append(s.last.owners[:0], cfg.StaticSlotOwner...)
	s.last.entry = e
	return e.table, e.err
}

// ownerKey encodes a slot-owner assignment as a comparable string.
func ownerKey(owners []model.NodeID) string {
	if len(owners) == 0 {
		return ""
	}
	buf := make([]byte, 8*len(owners))
	for i, o := range owners {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(o)))
	}
	return string(buf)
}
