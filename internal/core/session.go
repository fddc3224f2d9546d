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
	// batch holds the pooled scratch of EvalBatch's signature-grouping
	// planner, so steady-state batches only allocate their result
	// slices.
	batch batchScratch
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

// EvalBatch evaluates a slice of independent candidate configurations
// through the session and returns results and costs positionally
// aligned with cfgs. It is the batched form of calling Eval on each
// candidate front to back — same analyzer, same table memo, same
// results bit for bit — but the session chooses the evaluation order:
// candidates are grouped by the analyzer's interference signature
// (minislot length plus FrameID assignment), groups in first-seen
// order, original order within a group. A batch that interleaves
// FrameID moves with minislot-length moves then pays each arena rebuild
// once per group instead of once per alternation. The reordering is
// invisible in the results because every evaluation is a pure function
// of (system, config, table, options).
func (s *Session) EvalBatch(cfgs []*flexray.Config) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	if len(cfgs) <= 2 {
		// Grouping cannot save a rebuild below three candidates.
		for i, cfg := range cfgs {
			ress[i], costs[i] = s.Eval(cfg)
		}
		return ress, costs
	}
	for _, i := range s.batchOrder(cfgs) {
		ress[i], costs[i] = s.Eval(cfgs[i])
	}
	return ress, costs
}

// batchScratch pools the buffers of batchOrder across EvalBatch calls.
type batchScratch struct {
	sig    []int64
	key    []byte
	groups map[string]int32
	gid    []int32
	count  []int32
	order  []int
}

// batchOrder computes the grouped evaluation order of a batch: a
// permutation of [0, len(cfgs)) sorted stably by interference-signature
// group, groups numbered in order of first appearance.
func (s *Session) batchOrder(cfgs []*flexray.Config) []int {
	b := &s.batch
	if b.groups == nil {
		b.groups = make(map[string]int32)
	} else {
		clear(b.groups)
	}
	b.gid = b.gid[:0]
	for _, cfg := range cfgs {
		b.sig = s.an.EnvSignature(cfg, b.sig[:0])
		b.key = b.key[:0]
		for _, v := range b.sig {
			b.key = binary.LittleEndian.AppendUint64(b.key, uint64(v))
		}
		g, ok := b.groups[string(b.key)]
		if !ok {
			g = int32(len(b.groups))
			b.groups[string(b.key)] = g
		}
		b.gid = append(b.gid, g)
	}
	// Stable counting sort by group id.
	if cap(b.count) < len(b.groups) {
		b.count = make([]int32, len(b.groups))
	}
	b.count = b.count[:len(b.groups)]
	clear(b.count)
	for _, g := range b.gid {
		b.count[g]++
	}
	var start int32
	for g, c := range b.count {
		b.count[g] = start
		start += c
	}
	if cap(b.order) < len(cfgs) {
		b.order = make([]int, len(cfgs))
	}
	b.order = b.order[:len(cfgs)]
	for i, g := range b.gid {
		b.order[b.count[g]] = i
		b.count[g]++
	}
	return b.order
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
