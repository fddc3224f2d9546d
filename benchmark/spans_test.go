package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent, start, end int64) Span {
		return Span{OpID: 1, SpanID: id, ParentID: parent, Name: "s", StartNs: start, EndNs: end}
	}
	for _, tc := range []struct {
		name  string
		spans []Span
		want  map[int64]int64
	}{
		{
			name:  "leaf",
			spans: []Span{sp(1, 0, 0, 100)},
			want:  map[int64]int64{1: 100},
		},
		{
			name:  "disjoint children",
			spans: []Span{sp(1, 0, 0, 100), sp(2, 1, 10, 20), sp(3, 1, 50, 80)},
			want:  map[int64]int64{1: 60, 2: 10, 3: 30},
		},
		{
			// Concurrent optimisers: the union, not the sum, is
			// subtracted.
			name:  "overlapping children",
			spans: []Span{sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 70), sp(4, 1, 40, 45)},
			want:  map[int64]int64{1: 40, 2: 40, 3: 40, 4: 5},
		},
		{
			name:  "child outliving its parent is clipped",
			spans: []Span{sp(1, 0, 0, 100), sp(2, 1, 90, 130)},
			want:  map[int64]int64{1: 90, 2: 40},
		},
		{
			name:  "grandchildren count only against their parent",
			spans: []Span{sp(1, 0, 0, 100), sp(2, 1, 0, 60), sp(3, 2, 10, 50)},
			want:  map[int64]int64{1: 40, 2: 20, 3: 40},
		},
		{
			name:  "child covering the parent",
			spans: []Span{sp(1, 0, 10, 20), sp(2, 1, 0, 30)},
			want:  map[int64]int64{1: 0, 2: 30},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			for id, want := range tc.want {
				if got[id] != want {
					t.Errorf("span %d: self %d, want %d", id, got[id], want)
				}
			}
		})
	}
}

func TestLayerTableResidual(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		// Op 1: 100 ms, two overlapping optimisers cover 10..70 ms, a
		// decode covers 0..5 ms: 35 ms unexplained.
		{OpID: 1, SpanID: 1, Name: rootOp, StartNs: 0, EndNs: 100 * ms},
		{OpID: 1, SpanID: 2, ParentID: 1, Name: "model.read_json", StartNs: 0, EndNs: 5 * ms},
		{OpID: 1, SpanID: 3, ParentID: 1, Name: "core.sa", StartNs: 10 * ms, EndNs: 70 * ms},
		{OpID: 1, SpanID: 4, ParentID: 1, Name: "core.bbc", StartNs: 10 * ms, EndNs: 20 * ms},
		// Op 5: 50 ms, fully explained.
		{OpID: 5, SpanID: 5, Name: rootOp, StartNs: 200 * ms, EndNs: 250 * ms},
		{OpID: 5, SpanID: 6, ParentID: 5, Name: "core.sa", StartNs: 200 * ms, EndNs: 250 * ms},
		// A replay is untimed: it adds to no op share.
		{OpID: 7, SpanID: 7, Name: rootReplay, StartNs: 300 * ms, EndNs: 400 * ms},
		{OpID: 7, SpanID: 8, ParentID: 7, Name: "analysis.run", StartNs: 300 * ms, EndNs: 340 * ms},
		{OpID: 7, SpanID: 9, ParentID: 7, Name: "analysis.run", StartNs: 340 * ms, EndNs: 400 * ms},
	}
	tab := buildLayerTable(spans)
	if tab.OpCount != 2 || tab.OpWallMs != 150 || tab.Residual != 35 {
		t.Fatalf("ops %d, wall %v ms, residual %v ms; want 2, 150, 35", tab.OpCount, tab.OpWallMs, tab.Residual)
	}
	sa := tab.row("core.sa")
	if sa.Calls != 2 || sa.Busy != 110 || sa.Self != 110 || !near(sa.Share, 100*110.0/150) {
		t.Errorf("core.sa row %+v", sa)
	}
	if got := tab.layerSelfPct("core"); !near(got, 80) {
		t.Errorf("core self share %v%%", got)
	}
	run := tab.row("analysis.run")
	if run.Calls != 2 || run.MeanUs != 50000 || run.Share != 0 {
		t.Errorf("analysis.run replay row %+v", run)
	}
	if got := tab.layerSelfPct("analysis"); got != 0 {
		t.Errorf("replays leaked into the op share: %v%%", got)
	}
}
