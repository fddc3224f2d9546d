package schedule

import (
	"maps"
	"slices"
)

// Clone deep-copies the table. The global scheduling algorithm clones
// tables to evaluate alternative placements of an SCS task against the
// holistic analysis before committing one (Fig. 2 line 11). The clone
// shares no buffer with the original, so a Reset of either leaves the
// other intact.
func (t *Table) Clone() *Table {
	return &Table{
		Cfg:      t.Cfg,
		Horizon:  t.Horizon,
		Tasks:    slices.Clone(t.Tasks),
		Msgs:     slices.Clone(t.Msgs),
		nodeBusy: cloneEach(t.nodeBusy),
		taskAt:   cloneEach(t.taskAt),
		msgAt:    cloneEach(t.msgAt),
		slotUsed: maps.Clone(t.slotUsed),
		slots:    cloneEach(t.slots),
		// The availability memo is intentionally NOT shared: the
		// clone exists to be mutated, and clone-side invalidation
		// must never poison (or race with) the original's memo.
	}
}

// cloneEach copies a dense index and each of its lists.
func cloneEach[T any](s [][]T) [][]T {
	out := make([][]T, len(s))
	for i, v := range s {
		out[i] = slices.Clone(v)
	}
	return out
}
