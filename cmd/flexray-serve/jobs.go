package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// handleJobSubmit enqueues an async job; 202 on acceptance. A full
// queue sheds with 503 + Retry-After, mirroring the synchronous
// endpoints' load-shed behaviour. With -validate-jobs on, uploaded
// systems are linted first and hard failures rejected with 422.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request, spec *jobs.Spec) {
	if !s.lintSubmission(w, spec) {
		return
	}
	// The request span's identity rides along in the spec: the manager
	// continues the submitter's trace across the async boundary (and
	// across a restart — the spec is persisted verbatim). An explicit
	// client-supplied trace_parent is honoured over the request span.
	if spec.TraceParent == "" {
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			spec.TraceParent = sp.Traceparent()
		}
	}
	job, err := s.jobs.Submit(*spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job)
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
		s.markShed()
		w.Header().Set("Retry-After", retryAfter)
		httpErrorCode(w, http.StatusServiceUnavailable, codeQueueFull, err.Error())
	case errors.Is(err, jobs.ErrStore):
		// The spec was fine; persisting it failed. A server fault,
		// not a client error.
		httpErrorCode(w, http.StatusInternalServerError, codeStoreFailure, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	status := jobs.Status(r.URL.Query().Get("status"))
	if status != "" && !status.Valid() {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown status filter %q", status))
		return
	}
	list := s.jobs.List(status)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

// jobMissing answers a lookup failure: 410 Gone / code "evicted" for
// a job the retention policy evicted (it existed; its result is gone
// for good — do not retry), 404 otherwise.
func jobMissing(w http.ResponseWriter, err error) {
	if errors.Is(err, jobs.ErrEvicted) {
		httpErrorCode(w, http.StatusGone, codeEvicted, err.Error())
		return
	}
	httpError(w, http.StatusNotFound, err.Error())
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		jobMissing(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	res, job, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrEvicted):
		jobMissing(w, err)
	case errors.Is(err, jobs.ErrNotFinished):
		httpErrorCode(w, http.StatusConflict, codeNotFinished, fmt.Sprintf("job is %s, not finished", job.Status))
	default: // failed or cancelled: no payload to serve
		httpError(w, http.StatusConflict, fmt.Sprintf("job %s: %s", job.Status, job.Error))
	}
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, job)
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrEvicted):
		jobMissing(w, err)
	default: // already terminal
		httpError(w, http.StatusConflict, err.Error())
	}
}

// handleJobEvents streams a job's progress as Server-Sent Events: one
// "update" event per state change (snapshots, so slow consumers may
// skip intermediates but never observe regressions) and a final "done"
// event at the terminal transition.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	snap, ch, cancel, err := s.jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		jobMissing(w, err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if writeSSE(w, eventFor(snap)) != nil {
		return
	}
	fl.Flush()
	if snap.Status.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// The stream ended: emit the final snapshot in case
				// the buffered terminal event was dropped — but only
				// a terminal one. A manager shutdown checkpoints the
				// job back to queued with reset counters, and
				// publishing that would break the stream's monotone
				// progress promise.
				if final, err := s.jobs.Get(snap.ID); err == nil && final.Status.Terminal() {
					if writeSSE(w, eventFor(final)) == nil {
						fl.Flush()
					}
				}
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
			if ev.Job.Status.Terminal() {
				return
			}
		}
	}
}

// eventFor wraps a snapshot in the event type its status implies.
func eventFor(j jobs.Job) jobs.Event {
	typ := "update"
	if j.Status.Terminal() {
		typ = "done"
	}
	return jobs.Event{Type: typ, Job: j}
}

func writeSSE(w http.ResponseWriter, ev jobs.Event) error {
	data, err := json.Marshal(ev.Job)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}
