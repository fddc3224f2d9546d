package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Span tracing: a Tracer produces Spans (trace/span/parent IDs,
// monotonic start/duration, typed attributes, bounded events, status)
// that feed a bounded sharded SpanStore with per-trace assembly. The
// design rules mirror the metrics side of the package:
//
//   - zero cost when disabled: a nil *Tracer and a nil *Span are valid
//     receivers for every method, so instrumented code pays one nil
//     check — no allocation, no branch into the store — when tracing
//     is off;
//   - sampled when enabled: the head decision is taken once per trace
//     (ratio-based, or inherited from a remote traceparent) and spans
//     of unsampled traces are still recorded individually when they
//     end in error or run longer than the tracer's slow threshold;
//   - stdlib only.

// TraceID identifies one trace: 16 random bytes, hex-encoded on the
// wire (W3C trace-id).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace: 8 random bytes (W3C
// parent-id).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a span: what crosses process
// boundaries inside a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Span status codes, following the OTLP convention.
const (
	StatusUnset = 0
	StatusOK    = 1
	StatusError = 2
)

// Granularity selects how deep the optimiser layers instrument
// themselves when a tracer is installed.
type Granularity int

const (
	// GranRun records one span per optimiser run (per algorithm).
	GranRun Granularity = iota
	// GranPhase additionally records the internal phases of each
	// algorithm (curve-fit support/refine, OBC seed sweep, SA anneal
	// loop, BBC sweep).
	GranPhase
)

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Store receives finished spans. Nil creates a store with default
	// bounds.
	Store *SpanStore
	// SampleRatio is the head-sampling probability for new traces in
	// [0, 1]. Traces continued from a remote traceparent inherit the
	// remote decision instead.
	SampleRatio float64
	// SlowThreshold, when positive, records any span whose duration
	// reaches it even if its trace is unsampled (the rest of the
	// trace stays absent; the partial trace marks the slow path).
	SlowThreshold time.Duration
	// Detail selects the optimiser instrumentation depth.
	Detail Granularity
}

// Tracer creates spans. A nil Tracer is valid and records nothing.
type Tracer struct {
	store  *SpanStore
	ratio  float64
	slow   time.Duration
	detail Granularity
	seed   atomic.Uint64 // splitmix64 state for ID generation
}

// NewTracer returns a tracer writing finished spans to its store.
func NewTracer(o TracerOptions) *Tracer {
	if o.Store == nil {
		o.Store = NewSpanStore(SpanStoreOptions{})
	}
	if o.SampleRatio < 0 {
		o.SampleRatio = 0
	}
	if o.SampleRatio > 1 {
		o.SampleRatio = 1
	}
	t := &Tracer{store: o.Store, ratio: o.SampleRatio, slow: o.SlowThreshold, detail: o.Detail}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("obs: seeding tracer: %v", err))
	}
	t.seed.Store(binary.LittleEndian.Uint64(b[:]))
	return t
}

// Store returns the tracer's span store (nil for a nil tracer).
func (t *Tracer) Store() *SpanStore {
	if t == nil {
		return nil
	}
	return t.store
}

// rand64 returns the next pseudo-random word (splitmix64 over an
// atomic counter: lock-free, race-free, crypto-seeded).
func (t *Tracer) rand64() uint64 {
	z := t.seed.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.rand64())
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], t.rand64())
		binary.BigEndian.PutUint64(id[8:], t.rand64())
	}
	return id
}

// StartRoot begins a local root span. When parent is a valid remote
// SpanContext (extracted from a traceparent header or a persisted job
// spec) the new span continues that trace and inherits its sampling
// decision; otherwise a fresh trace ID is drawn and the head-sampling
// ratio decides. The returned context carries the span for StartSpan.
// A nil tracer returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, name: name, start: time.Now()}
	if parent.Valid() {
		s.sc = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID(), Sampled: parent.Sampled}
		s.parent = parent.SpanID
	} else {
		sampled := t.ratio >= 1 || (t.ratio > 0 && float64(t.rand64()>>11)/(1<<53) < t.ratio)
		s.sc = SpanContext{TraceID: t.newTraceID(), SpanID: t.newSpanID(), Sampled: sampled}
	}
	return ContextWithSpan(ctx, s), s
}

// Span is one timed operation. All methods are valid on a nil
// receiver (no-ops); a span is owned by one goroutine until End.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time
	attrs  []Attr
	events []SpanEvent
	// droppedEvents counts AddEvent calls past maxSpanEvents.
	droppedEvents int
	status        uint8
	msg           string
	ended         atomic.Bool
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the span carried by ctx. Without a span
// in ctx (tracing disabled, or an uninstrumented call path) it
// returns (ctx, nil) at the cost of one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

// StartChild starts a child span. Nil-safe: a nil receiver returns
// nil, so disabled tracing short-circuits through whole call trees.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	return &Span{
		tracer: t,
		name:   name,
		sc:     SpanContext{TraceID: s.sc.TraceID, SpanID: t.newSpanID(), Sampled: s.sc.Sampled},
		parent: s.sc.SpanID,
		start:  time.Now(),
	}
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the hex trace ID, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// Sampled reports whether the span's trace took the head-sampling
// decision (false for nil spans).
func (s *Span) Sampled() bool { return s != nil && s.sc.Sampled }

// Phases reports whether the tracer asks for phase-level optimiser
// spans (GranPhase). False for nil spans, so the optimisers guard
// their phase instrumentation with a single call.
func (s *Span) Phases() bool { return s != nil && s.tracer.detail >= GranPhase }

// SetStart backdates the span's start time; lifecycle spans that
// cover an interval observed after the fact (queued-wait) use it
// before End.
func (s *Span) SetStart(t time.Time) {
	if s == nil {
		return
	}
	s.start = t
}

// SetString attaches a string attribute.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, StringAttr(key, v))
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, IntAttr(key, v))
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, FloatAttr(key, v))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, BoolAttr(key, v))
}

// maxSpanEvents bounds the events one span retains; AddEvent calls
// past it are only counted (SpanData.DroppedEvents). The bound is sized
// for the optimisers' convergence events, which follow the
// improvement-only envelope of a run: on the cruise case study BBC,
// OBC-CF, OBC-EE and SA record 2, 4, 5 and 37 events, and over a
// 20-system synthetic population of 2-5 node platforms at most 22
// (BBC and both OBCs) and 93 (SA) — against 64 to 2001 evaluations.
const maxSpanEvents = 256

// SpanEvent is a timestamped annotation of a span (an OTLP span
// event): the optimisers record one "best" event per improvement of
// the running best cost.
type SpanEvent struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// AddEvent records a named event stamped with the current time. Past
// maxSpanEvents events the call is counted instead of kept; callers
// on hot paths check the span for nil before building attrs.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	if len(s.events) >= maxSpanEvents {
		s.droppedEvents++
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, Time: time.Now(), Attrs: attrs})
}

// OK marks the span status as explicitly successful.
func (s *Span) OK() {
	if s == nil {
		return
	}
	s.status = StatusOK
}

// Fail marks the span as failed; a nil err leaves the status alone.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.status = StatusError
	s.msg = err.Error()
}

// Duration returns the elapsed time since the span started (for
// ended spans callers should use the stored SpanData instead).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// End finishes the span and hands it to the store when the trace is
// sampled — or, for unsampled traces, when the span failed or ran
// past the tracer's slow threshold. End is idempotent; attributes
// and events added after End are lost.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	t := s.tracer
	if !s.sc.Sampled && s.status != StatusError && (t.slow <= 0 || dur < t.slow) {
		return
	}
	t.store.add(SpanData{
		TraceID:       s.sc.TraceID,
		SpanID:        s.sc.SpanID,
		Parent:        s.parent,
		Name:          s.name,
		Start:         s.start,
		Duration:      dur,
		Attrs:         s.attrs,
		Events:        s.events,
		DroppedEvents: s.droppedEvents,
		Status:        s.status,
		StatusMsg:     s.msg,
	})
}

// Attribute value kinds.
const (
	attrString = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed span attribute.
type Attr struct {
	Key  string
	kind uint8
	s    string
	i    int64
	f    float64
}

// StringAttr returns a string attribute.
func StringAttr(key, v string) Attr { return Attr{Key: key, kind: attrString, s: v} }

// IntAttr returns an integer attribute.
func IntAttr(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// FloatAttr returns a float attribute.
func FloatAttr(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// BoolAttr returns a boolean attribute.
func BoolAttr(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// Value returns the attribute value as an any (string, int64,
// float64 or bool).
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.i != 0
	default:
		return a.s
	}
}

// AttrValue returns the value of the first attribute named key (as
// Attr.Value), or nil when attrs has none.
func AttrValue(attrs []Attr, key string) any {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// SpanData is a finished span as retained by the SpanStore.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Events   []SpanEvent
	// DroppedEvents counts events past the per-span bound.
	DroppedEvents int
	Status        uint8
	StatusMsg     string
}
