package main

// Span tracing and the split health probes. Tracing is enabled by
// -trace-sample / -trace-slow; when both are zero the server keeps a
// nil tracer and every span call in the request path short-circuits on
// a nil check, so the disabled build has the exact allocation profile
// of the untraced one (the perf-regression pins rely on this).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// initTracing builds the span pipeline from the -trace-* config and
// registers the span-store series; called from newServer once s.reg
// exists. A disabled configuration leaves s.tracer and s.spans nil.
func (s *server) initTracing() error {
	var detail obs.Granularity
	switch s.cfg.TraceDetail {
	case "", "run":
		detail = obs.GranRun
	case "phase":
		detail = obs.GranPhase
	default:
		return fmt.Errorf("unknown -trace-detail %q (want run or phase)", s.cfg.TraceDetail)
	}
	if s.cfg.TraceSample <= 0 && s.cfg.TraceSlow <= 0 {
		return nil
	}
	s.spans = obs.NewSpanStore(obs.SpanStoreOptions{MaxSpans: s.cfg.TraceSpans})
	s.tracer = obs.NewTracer(obs.TracerOptions{
		Store:         s.spans,
		SampleRatio:   s.cfg.TraceSample,
		SlowThreshold: s.cfg.TraceSlow,
		Detail:        detail,
	})
	s.reg.CounterFunc("flexray_trace_spans_total",
		"Spans recorded into the in-memory span store.",
		func() float64 { return float64(s.spans.Stats().Recorded) })
	s.reg.CounterFunc("flexray_trace_spans_dropped_total",
		"Spans dropped because their trace hit the per-trace span cap.",
		func() float64 { return float64(s.spans.Stats().Dropped) })
	s.reg.CounterFunc("flexray_trace_traces_evicted_total",
		"Whole traces evicted (oldest first) to hold the -trace-spans bound.",
		func() float64 { return float64(s.spans.Stats().Evicted) })
	s.reg.GaugeFunc("flexray_trace_store_spans",
		"Spans currently retained by the span store.",
		func() float64 { return float64(s.spans.Stats().Spans) })
	s.reg.GaugeFunc("flexray_trace_store_traces",
		"Traces currently retained by the span store.",
		func() float64 { return float64(s.spans.Stats().Traces) })
	return nil
}

// startRequestSpan opens the root (or remote-continued) span of one
// request and returns the request with the span threaded through its
// context. With tracing disabled it returns the request unchanged and
// a nil span — safe for every later method call.
func (s *server) startRequestSpan(r *http.Request, method, path, reqID string) (*http.Request, *obs.Span) {
	if s.tracer == nil {
		return r, nil
	}
	// An incoming W3C traceparent makes this request a child of the
	// caller's span: the trace ID and sampling decision are inherited,
	// so a distributed trace stays in one piece. A missing or
	// malformed header starts a fresh trace (ParseTraceparent's zero
	// SpanContext is exactly "no parent").
	parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	ctx, span := s.tracer.StartRoot(r.Context(), "http "+method+" "+path, parent)
	span.SetString("http.method", method)
	span.SetString("http.route", path)
	span.SetString("request_id", reqID)
	return r.WithContext(ctx), span
}

// shedWindow is how long after a load shed the readiness probe keeps
// reporting not-ready: long enough for an orchestrator scraping every
// few seconds to observe the 503 burst, short enough to rejoin the
// rotation as soon as the queue drains.
const shedWindow = 5 * time.Second

// markShed records a load-shed (503) answer; flips /readyz for
// shedWindow.
func (s *server) markShed() { s.lastShed.Store(time.Now().UnixNano()) }

// readiness evaluates the readiness conditions: the job manager still
// accepts submissions (its store is open and the manager is not
// draining), the async queue has room, and no request was load-shed
// within shedWindow.
func (s *server) readiness() (bool, map[string]any) {
	accepting := s.jobs.Accepting()
	depth, capacity := s.jobs.QueueDepth()
	last := s.lastShed.Load()
	shedding := last != 0 && time.Since(time.Unix(0, last)) < shedWindow
	ready := accepting && depth < capacity && !shedding
	return ready, map[string]any{
		"ready":          ready,
		"accepting_jobs": accepting,
		"queue_depth":    depth,
		"queue_cap":      capacity,
		"shedding":       shedding,
	}
}

// handleLivez answers liveness: the process serves HTTP. It must stay
// truthful under overload — a full queue is a readiness failure, and
// restarting the pod for it would lose the queue.
func (s *server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": int64(time.Since(s.started).Seconds()),
	})
}

// handleReadyz answers readiness: 200 while the server should receive
// traffic, 503 while it should be rotated out (draining, queue full,
// or recently shedding load).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, detail := s.readiness()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, code, detail)
}

// handleTraceGet streams one assembled trace as JSONL: one span per
// line in OTLP/JSON field naming (traceId, spanId, parentSpanId,
// startTimeUnixNano, ...), ready for `flexray-bench trace` or an OTLP
// importer. Unsampled, expired and never-seen traces all answer 404 —
// the store cannot tell them apart.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		httpError(w, http.StatusNotFound, "tracing disabled (enable with -trace-sample or -trace-slow)")
		return
	}
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spans, dropped, ok := s.spans.Trace(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown trace (unsampled, evicted, or never seen)")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if dropped > 0 {
		w.Header().Set("X-Trace-Dropped-Spans", strconv.Itoa(dropped))
	}
	enc := json.NewEncoder(w)
	for _, sd := range spans {
		if err := enc.Encode(sd); err != nil {
			return
		}
	}
}

// jobSpansResponse is the payload of GET /v1/jobs/{id}/spans: the
// job's lifecycle summary (derived from its persisted timestamps, so it
// survives restarts alongside the job) plus the live spans of the job's
// trace when the span store still holds them. DroppedSpans counts spans
// the per-trace bound turned away (the X-Trace-Dropped-Spans header of
// GET /v1/traces/{id}), so a truncated tree — and with it possibly
// missing convergence events — is visible.
type jobSpansResponse struct {
	JobID        string         `json:"job_id"`
	Status       jobs.Status    `json:"status"`
	TraceID      string         `json:"trace_id,omitempty"`
	Summary      []spanSummary  `json:"summary,omitempty"`
	Spans        []obs.SpanData `json:"spans,omitempty"`
	DroppedSpans int            `json:"dropped_spans,omitempty"`
}

// spanSummary is the duration of one lifecycle phase of a job.
type spanSummary struct {
	Name       string `json:"name"`
	DurationUs int64  `json:"duration_us"`
}

func (s *server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		jobMissing(w, err)
		return
	}
	resp := jobSpansResponse{JobID: job.ID, Status: job.Status, TraceID: job.TraceID}
	if job.Status.Terminal() && !job.StartedAt.IsZero() {
		resp.Summary = []spanSummary{
			{Name: "job.queued", DurationUs: job.StartedAt.Sub(job.SubmittedAt).Microseconds()},
			{Name: "job.run", DurationUs: job.FinishedAt.Sub(job.StartedAt).Microseconds()},
		}
	}
	if s.spans != nil && job.TraceID != "" {
		if id, err := obs.ParseTraceID(job.TraceID); err == nil {
			if spans, dropped, ok := s.spans.Trace(id); ok {
				resp.Spans, resp.DroppedSpans = spans, dropped
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
