package jobs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestManagerMetrics runs a job through an instrumented manager and
// checks that every layer's telemetry moved: submit counter, terminal
// counter, latency histograms, store append timings, and the
// scrape-time state gauges.
func TestManagerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, Metrics: NewMetrics(reg)})
	raw := sysJSON(t, 2, 3)
	job, err := m.Submit(Spec{
		Kind: KindOptimize, System: raw,
		Algorithms: []string{"bbc"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"flexray_jobs_submitted_total 1",
		`flexray_jobs_finished_total{status="done"} 1`,
		`flexray_jobs_state{state="done"} 1`,
		`flexray_jobs_state{state="running"} 0`,
		"flexray_jobs_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Histograms observed at least once each.
	for _, fam := range []string{
		"flexray_jobs_start_delay_seconds_count 1",
		"flexray_jobs_run_seconds_count 1",
		"flexray_store_compact_seconds_count 1",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("scrape missing %q\n%s", fam, body)
		}
	}
	// Submit + running + done transitions all appended to the store.
	if strings.Contains(body, "flexray_store_append_seconds_count 0") {
		t.Error("store append histogram never observed")
	}
}

// tracedManager returns a manager whose tracer samples every job into
// the returned span store.
func tracedManager(t *testing.T) (*Manager, *obs.SpanStore) {
	t.Helper()
	store := obs.NewSpanStore(obs.SpanStoreOptions{})
	tracer := obs.NewTracer(obs.TracerOptions{Store: store, SampleRatio: 1})
	return newTestManager(t, nil, ManagerOptions{Workers: 1, Tracer: tracer}), store
}

// jobSpans returns the spans of a finished job's trace.
func jobSpans(t *testing.T, m *Manager, store *obs.SpanStore, id string) []obs.SpanData {
	t.Helper()
	job := waitStatus(t, m, id, StatusDone)
	tid, err := obs.ParseTraceID(job.TraceID)
	if err != nil {
		t.Fatalf("job trace ID %q: %v", job.TraceID, err)
	}
	spans, _, ok := store.Trace(tid)
	if !ok {
		t.Fatalf("job trace %s not in the span store", job.TraceID)
	}
	return spans
}

// TestJobTrace pins the convergence capture contract: every optimiser
// run of a traced optimize job records "best" events on its opt.<ALG>
// span, with falling costs ending at the run's result cost.
func TestJobTrace(t *testing.T) {
	m, store := tracedManager(t)
	job, err := m.Submit(Spec{
		Kind: KindOptimize, System: sysJSON(t, 2, 3),
		Algorithms: []string{"bbc", "sa"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, sd := range jobSpans(t, m, store, job.ID) {
		if !strings.HasPrefix(sd.Name, "opt.") {
			continue
		}
		algos[sd.Name] = true
		if len(sd.Events) == 0 || sd.DroppedEvents != 0 {
			t.Fatalf("%s: %d events, %d dropped", sd.Name, len(sd.Events), sd.DroppedEvents)
		}
		prev := math.Inf(1)
		for _, ev := range sd.Events {
			cost := obs.AttrValue(ev.Attrs, "cost").(float64)
			if ev.Name != "best" || cost >= prev {
				t.Fatalf("%s event %s cost %v after %v", sd.Name, ev.Name, cost, prev)
			}
			prev = cost
		}
		if want := obs.AttrValue(sd.Attrs, "cost"); prev != want {
			t.Errorf("%s last event cost %v, result cost %v", sd.Name, prev, want)
		}
	}
	if !algos["opt.BBC"] || !algos["opt.SA"] {
		t.Errorf("opt spans %v, want opt.BBC and opt.SA", algos)
	}
}

// TestTraceDisabled: a manager without a Tracer captures nothing — the
// job reports no trace ID.
func TestTraceDisabled(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	job, err := m.Submit(Spec{
		Kind: KindOptimize, System: sysJSON(t, 2, 3),
		Algorithms: []string{"bbc"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitStatus(t, m, job.ID, StatusDone); got.TraceID != "" {
		t.Fatalf("untraced manager stamped trace ID %q", got.TraceID)
	}
}

// TestCampaignTraceSystems: a campaign trace tells the per-system
// convergence curves apart through the span tree — every opt.<ALG>
// span with events hangs under the campaign.system span naming its
// system.
func TestCampaignTraceSystems(t *testing.T) {
	m, store := tracedManager(t)
	pop := &Population{NodeCounts: []int{2}, AppsPerCount: 2, Seed: 1, DeadlineFactor: 2.0}
	job, err := m.Submit(Spec{
		Kind: KindCampaign, Population: pop,
		Algorithms: []string{"bbc"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := jobSpans(t, m, store, job.ID)
	systemOf := map[obs.SpanID]string{}
	for _, sd := range spans {
		if sd.Name == "campaign.system" {
			systemOf[sd.SpanID], _ = obs.AttrValue(sd.Attrs, "system").(string)
		}
	}
	systems := map[string]bool{}
	for _, sd := range spans {
		if sd.Name != "opt.BBC" {
			continue
		}
		name := systemOf[sd.Parent]
		if name == "" || len(sd.Events) == 0 {
			t.Fatalf("opt.BBC span with %d events under system %q", len(sd.Events), name)
		}
		systems[name] = true
	}
	if len(systems) != 2 {
		t.Fatalf("expected convergence from 2 systems, got %v", systems)
	}
}
