package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function the HTTP handler would call. Spans of one op
// share op_id; an op's root span has parent_id 0 and its span_id is the
// op_id.
type Span struct {
	OpID     int64  `json:"op_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.EndNs - s.StartNs }

// Root span names. An "op" is one timed workload operation; a "replay"
// is untimed follow-up work (re-evaluating an op's candidates layer by
// layer), kept out of the op's wall time.
const (
	rootOp     = "op"
	rootReplay = "replay"
)

// recorder holds spans in memory until the run ends. While it is off
// every call is a no-op, which is how warm-up ops and the spans-off
// pass of the overhead measurement run the same code.
type recorder struct {
	on   atomic.Bool
	base time.Time
	ids  atomic.Int64

	mu    sync.Mutex
	spans []Span
	// cur is the open timed op that spans recorded from outside the
	// op's call stack — store appends, lease calls — belong to.
	cur Span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// enabled reports whether spans are being recorded.
func (r *recorder) enabled() bool { return r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// at converts a wall-clock instant taken in this process to span time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// openSpan is a started span; end records it.
type openSpan struct {
	r    *recorder
	span Span
}

// begin starts an op: a root span that later spans attach to.
func (r *recorder) begin(name string) openSpan {
	if !r.enabled() {
		return openSpan{}
	}
	id := r.ids.Add(1)
	o := openSpan{r: r, span: Span{OpID: id, SpanID: id, Name: name, StartNs: r.now()}}
	if name == rootOp {
		r.mu.Lock()
		r.cur = o.span
		r.mu.Unlock()
	}
	return o
}

// child starts a span under parent.
func (p openSpan) child(name string) openSpan {
	if p.r == nil {
		return openSpan{}
	}
	return openSpan{r: p.r, span: Span{
		OpID: p.span.OpID, SpanID: p.r.ids.Add(1), ParentID: p.span.SpanID,
		Name: name, StartNs: p.r.now(),
	}}
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	o.span.EndNs = o.r.now()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	if o.span.SpanID == o.r.cur.SpanID {
		o.r.cur = Span{}
	}
	o.r.mu.Unlock()
}

// current returns the open timed op; the zero Span when there is none.
// A call made from outside the op's call stack takes it when it starts,
// since the op may end before the call returns.
func (r *recorder) current() Span {
	if !r.enabled() {
		return Span{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// addTo records a finished span under op. Calls made outside every op
// (a worker's idle polling) are dropped.
func (r *recorder) addTo(op Span, name string, start, end int64) {
	if op.SpanID == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		OpID: op.OpID, SpanID: r.ids.Add(1), ParentID: op.SpanID,
		Name: name, StartNs: start, EndNs: end,
	})
}

func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps every span ID to its self time: its duration minus the
// union of its children's intervals (clipped to its own). Children can
// overlap — the four optimisers of a portfolio run concurrently — so
// the union, not the sum, is subtracted.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.SpanID] = s.dur() - unionWithin(kids[s.SpanID], s.StartNs, s.EndNs)
	}
	return self
}

// unionWithin is the total length of the union of the spans'
// intervals, each clipped to [lo, hi].
func unionWithin(spans []Span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNs, lo), min(s.EndNs, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of a workload's layer table.
type layerRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Busy  float64 `json:"busy_ms"`
	Self  float64 `json:"self_ms"`
	// Share is Self as a percentage of the summed op wall time (timed
	// ops only; replay rows have none).
	Share  float64 `json:"share_pct"`
	MeanUs float64 `json:"mean_us"`
}

// layerTable aggregates spans by name, separately for the timed ops
// and the untimed replays. opWall is the summed duration of the op
// roots; residual is their summed self time — op wall time no layer
// span explains.
type layerTable struct {
	Ops      []layerRow `json:"ops"`
	Replays  []layerRow `json:"replays"`
	OpCount  int        `json:"op_count"`
	OpWallMs float64    `json:"op_wall_ms"`
	Residual float64    `json:"residual_ms"`
}

func buildLayerTable(spans []Span) layerTable {
	self := selfTimes(spans)
	rootName := map[int64]string{}
	for _, s := range spans {
		if s.ParentID == 0 {
			rootName[s.OpID] = s.Name
		}
	}
	type acc struct {
		calls      int
		busy, self int64
	}
	accs := map[string]map[string]*acc{rootOp: {}, rootReplay: {}}
	var t layerTable
	var wall, resid int64
	for _, s := range spans {
		kind := rootName[s.OpID]
		group, ok := accs[kind]
		if !ok {
			continue
		}
		if s.ParentID == 0 {
			if kind == rootOp {
				t.OpCount++
				wall += s.dur()
				resid += self[s.SpanID]
			}
			continue
		}
		a := group[s.Name]
		if a == nil {
			a = &acc{}
			group[s.Name] = a
		}
		a.calls++
		a.busy += s.dur()
		a.self += self[s.SpanID]
	}
	rows := func(group map[string]*acc, share bool) []layerRow {
		var out []layerRow
		for name, a := range group {
			r := layerRow{
				Name: name, Calls: a.calls,
				Busy: float64(a.busy) / 1e6, Self: float64(a.self) / 1e6,
				MeanUs: float64(a.busy) / 1e3 / float64(a.calls),
			}
			if share {
				r.Share = 100 * ratio(float64(a.self), float64(wall))
			}
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	t.Ops = rows(accs[rootOp], true)
	t.Replays = rows(accs[rootReplay], false)
	t.OpWallMs = float64(wall) / 1e6
	t.Residual = float64(resid) / 1e6
	return t
}

// row returns the named row of the op or replay section.
func (t layerTable) row(name string) layerRow {
	for _, r := range append(slices.Clone(t.Ops), t.Replays...) {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

// layerSelfPct is the share of op wall time spent in the layer's own
// code: the summed self time of every op span named "<layer>.…".
func (t layerTable) layerSelfPct(layer string) float64 {
	var self float64
	for _, r := range t.Ops {
		if strings.HasPrefix(r.Name, layer+".") {
			self += r.Self
		}
	}
	return 100 * ratio(self, t.OpWallMs)
}

// print writes the human-readable table.
func (t layerTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "layer table %s: %d ops, %.1f ms op wall time\n", workload, t.OpCount, t.OpWallMs)
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %8s %12s\n", "span", "calls", "busy_ms", "self_ms", "share_%", "mean_us")
	for _, r := range t.Ops {
		fmt.Fprintf(w, "  %-26s %8d %12.2f %12.2f %8.2f %12.2f\n", r.Name, r.Calls, r.Busy, r.Self, r.Share, r.MeanUs)
	}
	fmt.Fprintf(w, "  %-26s %8s %12s %12.2f %8.2f\n", "residual (op self)", "", "", t.Residual, 100*ratio(t.Residual, t.OpWallMs))
	if len(t.Replays) > 0 {
		fmt.Fprintf(w, "  untimed replays of the ops' candidates:\n")
		for _, r := range t.Replays {
			fmt.Fprintf(w, "  %-26s %8d %12.2f %12.2f %8s %12.2f\n", r.Name, r.Calls, r.Busy, r.Self, "", r.MeanUs)
		}
	}
}
