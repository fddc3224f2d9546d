package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTracer(ratio float64, o TracerOptions) (*Tracer, *SpanStore) {
	o.SampleRatio = ratio
	if o.Store == nil {
		o.Store = NewSpanStore(SpanStoreOptions{})
	}
	return NewTracer(o), o.Store
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"sampled", valid, true, true},
		{"unsampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true, false},
		{"surrounding space", "  " + valid + "  ", true, true},
		{"other flag bits ignored", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03", true, true},
		{"flag bit 0 unset", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-02", true, false},
		{"future version extra fields", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", true, true},
		{"empty", "", false, false},
		{"three fields", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", false, false},
		{"version 00 extra field", valid + "-extra", false, false},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false, false},
		{"uppercase version", "0A-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false, false},
		{"one-char version", "0-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false, false},
		{"short trace id", "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01", false, false},
		{"uppercase trace id", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false, false},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false, false},
		{"short span id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01", false, false},
		{"zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false, false},
		{"non-hex span id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033zz-01", false, false},
		{"short flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1", false, false},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseTraceparent(tc.in)
			if tc.ok != (err == nil) {
				t.Fatalf("ParseTraceparent(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			}
			if !tc.ok {
				if sc.Valid() {
					t.Errorf("invalid input %q returned valid context %+v", tc.in, sc)
				}
				return
			}
			if !sc.Valid() {
				t.Fatalf("valid input %q returned invalid context", tc.in)
			}
			if sc.Sampled != tc.sampled {
				t.Errorf("Sampled = %v, want %v", sc.Sampled, tc.sampled)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr, _ := testTracer(1, TracerOptions{})
	_, span := tr.StartRoot(context.Background(), "root", SpanContext{})
	hdr := span.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") || len(hdr) != 55 {
		t.Fatalf("Traceparent() = %q, want 00-<32hex>-<16hex>-01", hdr)
	}
	sc, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("reparsing own header %q: %v", hdr, err)
	}
	if sc != span.Context() {
		t.Errorf("round trip %+v != original %+v", sc, span.Context())
	}
	if FormatTraceparent(sc) != hdr {
		t.Errorf("FormatTraceparent(%+v) = %q, want %q", sc, FormatTraceparent(sc), hdr)
	}
	// Unsampled contexts round-trip the 00 flag byte.
	un := SpanContext{TraceID: sc.TraceID, SpanID: sc.SpanID, Sampled: false}
	if got, err := ParseTraceparent(FormatTraceparent(un)); err != nil || got != un {
		t.Errorf("unsampled round trip = %+v, %v; want %+v", got, err, un)
	}
	if (&Span{}).Traceparent() == "" {
		// a zero-value span formats its zero context; only nil is "".
	}
	var nilSpan *Span
	if nilSpan.Traceparent() != "" {
		t.Errorf("nil span Traceparent() = %q, want empty", nilSpan.Traceparent())
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-xx")
	f.Add("")
	f.Add("00--.-")
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseTraceparent(in)
		if err != nil {
			if sc.Valid() {
				t.Fatalf("error %v but valid context %+v", err, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("no error but invalid context for %q", in)
		}
		// Everything that parses must survive a format/parse cycle
		// with identical identity and sampling.
		again, err := ParseTraceparent(FormatTraceparent(sc))
		if err != nil {
			t.Fatalf("reparsing formatted %q: %v", FormatTraceparent(sc), err)
		}
		if again != sc {
			t.Fatalf("round trip %+v != %+v for input %q", again, sc, in)
		}
	})
}

func TestSpanTreeAssembly(t *testing.T) {
	tr, store := testTracer(1, TracerOptions{})
	ctx, root := tr.StartRoot(context.Background(), "request", SpanContext{})
	root.SetString("route", "/v1/jobs")
	ctx, child := StartSpan(ctx, "job")
	_, grand := StartSpan(ctx, "campaign.system")
	grand.SetInt("evaluations", 42)
	grand.End()
	child.End()
	root.End()

	spans, dropped, ok := store.Trace(root.Context().TraceID)
	if !ok || dropped != 0 {
		t.Fatalf("Trace() ok=%v dropped=%d, want true, 0", ok, dropped)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
		if sd.TraceID != root.Context().TraceID {
			t.Errorf("span %q trace %s, want %s", sd.Name, sd.TraceID, root.Context().TraceID)
		}
	}
	if byName["job"].Parent != byName["request"].SpanID {
		t.Errorf("job parent %s, want request %s", byName["job"].Parent, byName["request"].SpanID)
	}
	if byName["campaign.system"].Parent != byName["job"].SpanID {
		t.Errorf("campaign.system parent %s, want job %s", byName["campaign.system"].Parent, byName["job"].SpanID)
	}
	if !byName["request"].Parent.IsZero() {
		t.Errorf("root has parent %s, want zero", byName["request"].Parent)
	}
	if got := byName["campaign.system"].Attrs[0].Value(); got != int64(42) {
		t.Errorf("evaluations attr = %v, want 42", got)
	}
}

func TestRemoteParentContinuation(t *testing.T) {
	tr, store := testTracer(0, TracerOptions{}) // ratio 0: only the remote decision samples
	remote, err := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil {
		t.Fatal(err)
	}
	_, span := tr.StartRoot(context.Background(), "request", remote)
	if !span.Sampled() {
		t.Fatal("span did not inherit the remote sampled flag")
	}
	if span.Context().TraceID != remote.TraceID {
		t.Fatalf("trace %s, want remote %s", span.Context().TraceID, remote.TraceID)
	}
	span.End()
	spans, _, ok := store.Trace(remote.TraceID)
	if !ok || len(spans) != 1 || spans[0].Parent != remote.SpanID {
		t.Fatalf("continued span not recorded under remote parent: %+v ok=%v", spans, ok)
	}
}

func TestUnsampledTailUpgrade(t *testing.T) {
	tr, store := testTracer(0, TracerOptions{SlowThreshold: 50 * time.Millisecond})

	_, fast := tr.StartRoot(context.Background(), "fast-ok", SpanContext{})
	fast.End()
	if _, _, ok := store.Trace(fast.Context().TraceID); ok {
		t.Error("unsampled fast span was recorded")
	}

	_, failed := tr.StartRoot(context.Background(), "failed", SpanContext{})
	failed.Fail(errors.New("boom"))
	failed.End()
	if spans, _, ok := store.Trace(failed.Context().TraceID); !ok || spans[0].Status != StatusError || spans[0].StatusMsg != "boom" {
		t.Errorf("error span not upgraded into the store: %+v ok=%v", spans, ok)
	}

	_, slow := tr.StartRoot(context.Background(), "slow", SpanContext{})
	slow.SetStart(time.Now().Add(-time.Second))
	slow.End()
	if _, _, ok := store.Trace(slow.Context().TraceID); !ok {
		t.Error("slow span not upgraded into the store")
	}
}

func TestNilTracerAndSpanSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartRoot(context.Background(), "x", SpanContext{})
	if span != nil {
		t.Fatal("nil tracer returned a span")
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer returned a store")
	}
	// Every method must be a no-op on the nil span, including the whole
	// child tree derived from it.
	child := span.StartChild("child")
	if child != nil {
		t.Fatal("nil span returned a child")
	}
	span.SetString("k", "v")
	span.SetInt("k", 1)
	span.SetFloat("k", 1)
	span.SetBool("k", true)
	span.AddEvent("e", IntAttr("k", 1))
	span.SetStart(time.Now())
	span.OK()
	span.Fail(errors.New("x"))
	span.End()
	if span.Sampled() || span.Phases() || span.TraceID() != "" || span.Traceparent() != "" || span.Duration() != 0 {
		t.Error("nil span leaked state")
	}
	if ctx2, s2 := StartSpan(ctx, "y"); s2 != nil || ctx2 != ctx {
		t.Error("StartSpan without a context span must return (ctx, nil)")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr, store := testTracer(1, TracerOptions{})
	_, span := tr.StartRoot(context.Background(), "once", SpanContext{})
	span.End()
	span.End()
	spans, _, _ := store.Trace(span.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(spans))
	}
}

func TestSpanStorePerTraceCap(t *testing.T) {
	store := NewSpanStore(SpanStoreOptions{MaxSpans: 4096, MaxSpansPerTrace: 8})
	tr, _ := testTracer(1, TracerOptions{Store: store})
	_, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	for i := 0; i < 20; i++ {
		root.StartChild(fmt.Sprintf("c%d", i)).End()
	}
	root.End()
	spans, dropped, ok := store.Trace(root.Context().TraceID)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(spans) != 8 || dropped != 13 {
		t.Errorf("got %d spans, %d dropped; want 8 kept, 13 dropped", len(spans), dropped)
	}
	if st := store.Stats(); st.Dropped != 13 || st.Spans != 8 {
		t.Errorf("Stats() = %+v, want Dropped=13 Spans=8", st)
	}
}

func TestSpanStoreEviction(t *testing.T) {
	// One more single-span trace than MaxSpans holds: the oldest trace
	// must be evicted, not the store grow.
	const traces = 65
	store := NewSpanStore(SpanStoreOptions{MaxSpans: 64, MaxSpansPerTrace: 4})
	tr, _ := testTracer(1, TracerOptions{Store: store})
	var ids []TraceID
	for i := 0; i < traces; i++ {
		_, sp := tr.StartRoot(context.Background(), "s", SpanContext{})
		sp.End()
		ids = append(ids, sp.Context().TraceID)
	}
	st := store.Stats()
	if st.Recorded != traces {
		t.Errorf("Recorded = %d, want %d", st.Recorded, traces)
	}
	if st.Evicted == 0 {
		t.Error("no traces evicted despite overflow")
	}
	if st.Spans > 64 {
		t.Errorf("store holds %d spans, bound is 64", st.Spans)
	}
	kept := 0
	for _, id := range ids {
		if _, _, ok := store.Trace(id); ok {
			kept++
		}
	}
	if kept != st.Traces {
		t.Errorf("reachable traces %d != Stats().Traces %d", kept, st.Traces)
	}
}

// TestSpanStoreBoundHolds: MaxSpans bounds the whole store at every
// step of a long load, and what survives is the newest traces.
func TestSpanStoreBoundHolds(t *testing.T) {
	const traces, perTrace = 4000, 20
	for _, maxSpans := range []int{1000, 4096} {
		store := NewSpanStore(SpanStoreOptions{MaxSpans: maxSpans})
		ids := make([]TraceID, traces)
		for i := range ids {
			ids[i] = TraceID{byte(i), byte(i >> 8), 1}
			for j := 0; j < perTrace; j++ {
				store.add(SpanData{TraceID: ids[i]})
				if n := store.Stats().Spans; n > maxSpans {
					t.Fatalf("MaxSpans %d: %d spans held in trace %d", maxSpans, n, i+1)
				}
			}
		}
		newest := maxSpans / perTrace
		for i, id := range ids {
			if _, _, ok := store.Trace(id); ok != (i >= traces-newest) {
				t.Fatalf("MaxSpans %d: trace %d of %d kept = %v, want only the newest %d",
					maxSpans, i, traces, ok, newest)
			}
		}
	}
}

// TestSpanStoreFullTraceEvictedByNeighbour: with MaxSpans below the
// per-trace bound, a trace at that bound overflows the store on its
// own and is kept while it is appended to, and one span of any other
// trace evicts it; with room for both, it stays.
func TestSpanStoreFullTraceEvictedByNeighbour(t *testing.T) {
	full, neighbour := TraceID{1}, TraceID{2}
	for _, tc := range []struct {
		maxSpans int
		kept     bool
	}{{64, false}, {16 * 1024, true}} {
		store := NewSpanStore(SpanStoreOptions{MaxSpans: tc.maxSpans, MaxSpansPerTrace: 512})
		for i := 0; i < 600; i++ {
			store.add(SpanData{TraceID: full})
		}
		store.add(SpanData{TraceID: neighbour})
		if _, _, ok := store.Trace(full); ok != tc.kept {
			t.Errorf("MaxSpans %d: full trace kept = %v, want %v", tc.maxSpans, ok, tc.kept)
		}
	}
}

func TestSpanOTLPRoundTrip(t *testing.T) {
	tr, store := testTracer(1, TracerOptions{})
	_, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	child := root.StartChild("child")
	child.SetString("s", "v")
	child.SetInt("i", -7)
	child.SetFloat("f", 2.5)
	child.SetBool("b", true)
	child.Fail(errors.New("bad"))
	child.End()
	root.End()
	spans, _, _ := store.Trace(root.Context().TraceID)
	for _, sd := range spans {
		raw, err := json.Marshal(sd)
		if err != nil {
			t.Fatalf("marshal %q: %v", sd.Name, err)
		}
		// OTLP field naming on the wire.
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"traceId", "spanId", "name", "startTimeUnixNano", "endTimeUnixNano"} {
			if _, ok := fields[k]; !ok {
				t.Errorf("span %q JSON lacks %q: %s", sd.Name, k, raw)
			}
		}
		if sd.Parent.IsZero() {
			if _, ok := fields["parentSpanId"]; ok {
				t.Errorf("root span JSON carries parentSpanId: %s", raw)
			}
		}
		var back SpanData
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %q: %v", sd.Name, err)
		}
		if back.TraceID != sd.TraceID || back.SpanID != sd.SpanID || back.Parent != sd.Parent ||
			back.Name != sd.Name || back.Status != sd.Status || back.StatusMsg != sd.StatusMsg ||
			back.Duration != sd.Duration || !back.Start.Equal(sd.Start) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, sd)
		}
		if len(back.Attrs) != len(sd.Attrs) {
			t.Fatalf("round trip attrs %d, want %d", len(back.Attrs), len(sd.Attrs))
		}
		for i := range sd.Attrs {
			if back.Attrs[i].Key != sd.Attrs[i].Key || back.Attrs[i].Value() != sd.Attrs[i].Value() {
				t.Errorf("attr %d: got %v=%v, want %v=%v", i,
					back.Attrs[i].Key, back.Attrs[i].Value(), sd.Attrs[i].Key, sd.Attrs[i].Value())
			}
		}
	}
}

// TestSpanEventsCapped: a span keeps its first maxSpanEvents events in
// order and only counts the overflow.
func TestSpanEventsCapped(t *testing.T) {
	tr, store := testTracer(1, TracerOptions{})
	_, span := tr.StartRoot(context.Background(), "opt.SA", SpanContext{})
	const extra = 7
	for i := 0; i < maxSpanEvents+extra; i++ {
		span.AddEvent("best", IntAttr("evaluations", int64(i)))
	}
	span.End()
	spans, _, _ := store.Trace(span.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sd := spans[0]
	if len(sd.Events) != maxSpanEvents || sd.DroppedEvents != extra {
		t.Fatalf("kept %d events, dropped %d; want %d and %d",
			len(sd.Events), sd.DroppedEvents, maxSpanEvents, extra)
	}
	for i, ev := range sd.Events {
		if ev.Name != "best" || ev.Attrs[0].Value() != int64(i) || ev.Time.IsZero() {
			t.Fatalf("event %d = %+v, want best #%d with a timestamp", i, ev, i)
		}
	}
}

// TestSpanEventsOTLPRoundTrip: events and the dropped-event count
// travel under the OTLP field names and decode back unchanged.
func TestSpanEventsOTLPRoundTrip(t *testing.T) {
	at := time.Unix(1700000000, 123456789)
	sd := SpanData{
		TraceID: TraceID{1}, SpanID: SpanID{2}, Name: "opt.SA", Start: at, Duration: time.Second,
		Events: []SpanEvent{
			{Name: "best", Time: at.Add(time.Millisecond), Attrs: []Attr{
				IntAttr("evaluations", 1), FloatAttr("cost", 21567), IntAttr("elapsed_us", 1000)}},
			{Name: "best", Time: at.Add(2 * time.Millisecond), Attrs: []Attr{
				IntAttr("evaluations", 9), FloatAttr("cost", -3.5), FloatAttr("temperature", 97.25)}},
		},
		DroppedEvents: 3,
	}
	raw, err := json.Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Events []struct {
			TimeUnixNano string           `json:"timeUnixNano"`
			Name         string           `json:"name"`
			Attributes   []map[string]any `json:"attributes"`
		} `json:"events"`
		DroppedEventsCount int `json:"droppedEventsCount"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Events) != 2 || wire.DroppedEventsCount != 3 ||
		wire.Events[0].TimeUnixNano != "1700000000124456789" || len(wire.Events[1].Attributes) != 3 {
		t.Fatalf("OTLP event fields wrong: %s", raw)
	}
	var back SpanData
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.DroppedEvents != sd.DroppedEvents || len(back.Events) != len(sd.Events) {
		t.Fatalf("round trip: %d events, %d dropped; want %d, %d",
			len(back.Events), back.DroppedEvents, len(sd.Events), sd.DroppedEvents)
	}
	for i, ev := range sd.Events {
		got := back.Events[i]
		if got.Name != ev.Name || !got.Time.Equal(ev.Time) || len(got.Attrs) != len(ev.Attrs) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, ev)
		}
		for j, a := range ev.Attrs {
			if got.Attrs[j].Key != a.Key || got.Attrs[j].Value() != a.Value() {
				t.Errorf("event %d attr %d: got %s=%v, want %s=%v", i, j,
					got.Attrs[j].Key, got.Attrs[j].Value(), a.Key, a.Value())
			}
		}
	}
	// A span without events carries neither field.
	plain, _ := json.Marshal(SpanData{TraceID: TraceID{1}, SpanID: SpanID{2}, Name: "x", Start: at})
	if strings.Contains(string(plain), "events") || strings.Contains(string(plain), "droppedEventsCount") {
		t.Errorf("event-less span carries event fields: %s", plain)
	}
}

// TestSpanConcurrency hammers span creation/finish against trace
// assembly and stats scraping; run with -race it pins the store's
// synchronisation.
func TestSpanConcurrency(t *testing.T) {
	store := NewSpanStore(SpanStoreOptions{MaxSpans: 2048, MaxSpansPerTrace: 64})
	tr, _ := testTracer(1, TracerOptions{Store: store})
	const writers = 8
	stop := make(chan struct{})
	var ids sync.Map
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, root := tr.StartRoot(context.Background(), "root", SpanContext{})
				for c := 0; c < 4; c++ {
					ch := root.StartChild("child")
					ch.SetInt("c", int64(c))
					ch.End()
				}
				root.End()
				ids.Store(root.Context().TraceID, true)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids.Range(func(k, _ any) bool {
					spans, dropped, ok := store.Trace(k.(TraceID))
					if ok && dropped == 0 && len(spans) > 5 {
						panic(fmt.Sprintf("trace with %d spans, max is 5", len(spans)))
					}
					return true
				})
				_ = store.Stats()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := store.Stats()
	if st.Recorded == 0 {
		t.Fatal("no spans recorded")
	}
	if st.Spans > 2048 {
		t.Errorf("store exceeded its bound: %d spans", st.Spans)
	}
}
