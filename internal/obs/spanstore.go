package obs

import "sync"

// SpanStoreOptions bounds a SpanStore.
type SpanStoreOptions struct {
	// MaxSpans bounds the total number of retained spans across all
	// traces; when the store overflows, whole traces are evicted,
	// oldest first. The trace being appended to is never evicted, so a
	// single trace may exceed a MaxSpans below MaxSpansPerTrace.
	// Default 65536.
	MaxSpans int
	// MaxSpansPerTrace bounds one trace; spans past the bound are
	// dropped (counted per trace and globally). Default 512.
	MaxSpansPerTrace int
}

// SpanStore is a bounded in-memory store of finished spans, keyed by
// trace ID for per-trace assembly. All methods are safe for concurrent
// use.
type SpanStore struct {
	maxSpans    int
	maxPerTrace int

	mu     sync.Mutex
	traces map[TraceID]*traceBuf
	// order is the FIFO eviction queue of live trace IDs; head indexes
	// the oldest entry (the prefix is compacted away periodically so
	// the backing array stays bounded).
	order []TraceID
	head  int
	spans int

	recorded uint64 // spans accepted
	dropped  uint64 // spans dropped by the per-trace bound
	evicted  uint64 // traces evicted by the store bound
}

type traceBuf struct {
	spans   []SpanData
	dropped int
}

// NewSpanStore returns a store with the given bounds (zero fields
// take defaults).
func NewSpanStore(o SpanStoreOptions) *SpanStore {
	if o.MaxSpans <= 0 {
		o.MaxSpans = 65536
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 512
	}
	return &SpanStore{
		maxSpans:    o.MaxSpans,
		maxPerTrace: o.MaxSpansPerTrace,
		traces:      map[TraceID]*traceBuf{},
	}
}

// add retains one finished span, evicting the oldest traces when the
// store overflows.
func (s *SpanStore) add(sd SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.traces[sd.TraceID]
	if !ok {
		buf = &traceBuf{}
		s.traces[sd.TraceID] = buf
		s.order = append(s.order, sd.TraceID)
	}
	if len(buf.spans) >= s.maxPerTrace {
		buf.dropped++
		s.dropped++
		return
	}
	buf.spans = append(buf.spans, sd)
	s.spans++
	s.recorded++
	for s.spans > s.maxSpans && len(s.traces) > 1 {
		old := s.order[s.head]
		s.head++
		if old == sd.TraceID {
			// Never evict the trace being appended to: re-queue it
			// as the newest and keep scanning.
			s.order = append(s.order, old)
			continue
		}
		s.spans -= len(s.traces[old].spans)
		delete(s.traces, old)
		s.evicted++
	}
	if s.head > len(s.order)/2 && s.head > 32 {
		s.order = append(s.order[:0:0], s.order[s.head:]...)
		s.head = 0
	}
}

// Trace returns a copy of the retained spans of one trace plus the
// number of spans its per-trace bound dropped; ok is false when the
// trace is unknown (never sampled, or already evicted).
func (s *SpanStore) Trace(id TraceID) (spans []SpanData, dropped int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.traces[id]
	if !ok {
		return nil, 0, false
	}
	return append([]SpanData(nil), buf.spans...), buf.dropped, true
}

// SpanStoreStats is a point-in-time view of the store.
type SpanStoreStats struct {
	Traces   int    // live traces
	Spans    int    // live spans
	Recorded uint64 // spans accepted since creation
	Dropped  uint64 // spans dropped by the per-trace bound
	Evicted  uint64 // traces evicted by the store bound
}

// Stats returns current occupancy and lifetime totals.
func (s *SpanStore) Stats() SpanStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanStoreStats{
		Traces:   len(s.traces),
		Spans:    s.spans,
		Recorded: s.recorded,
		Dropped:  s.dropped,
		Evicted:  s.evicted,
	}
}
