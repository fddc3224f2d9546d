package flexopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	flexopt "repro"
)

// buildDemo assembles the README's quickstart system through the public
// facade.
func buildDemo(t testing.TB) *flexopt.System {
	t.Helper()
	b := flexopt.NewBuilder("facade-demo", 3)
	g := b.Graph("control", 10*flexopt.Millisecond, 8*flexopt.Millisecond)
	sense := b.Task(g, "sense", 0, 400*flexopt.Microsecond, flexopt.SCS)
	ctl := b.Task(g, "ctl", 1, 900*flexopt.Microsecond, flexopt.SCS)
	act := b.Task(g, "act", 2, 350*flexopt.Microsecond, flexopt.SCS)
	b.Message("m_meas", flexopt.ST, 120*flexopt.Microsecond, sense, ctl, 0)
	b.Message("m_cmd", flexopt.ST, 90*flexopt.Microsecond, ctl, act, 0)
	d := b.Graph("diag", 20*flexopt.Millisecond, 20*flexopt.Millisecond)
	probe := b.PrioTask(d, "probe", 2, 500*flexopt.Microsecond, 3)
	classify := b.PrioTask(d, "classify", 1, 700*flexopt.Microsecond, 2)
	b.Message("m_probe", flexopt.DYN, 200*flexopt.Microsecond, probe, classify, 5)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPublicAPIEndToEnd drives the whole pipeline through the facade:
// build, optimise with every algorithm, schedule, simulate, serialise.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys := buildDemo(t)
	opts := flexopt.DefaultOptions()

	for _, alg := range []struct {
		name string
		run  func(*flexopt.System, flexopt.Options) (*flexopt.Result, error)
	}{
		{"BBC", flexopt.BBC},
		{"OBC-CF", flexopt.OBCCF},
		{"OBC-EE", flexopt.OBCEE},
		{"SA", flexopt.SA},
	} {
		res, err := alg.run(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if !res.Schedulable {
			t.Errorf("%s: demo system should be schedulable (cost %.1f)", alg.name, res.Cost)
		}
		if err := res.Config.Validate(flexopt.DefaultBusParams(), sys); err != nil {
			t.Errorf("%s: invalid config: %v", alg.name, err)
		}

		table, ana, err := flexopt.BuildSchedule(sys, res.Config, flexopt.DefaultSchedOptions())
		if err != nil {
			t.Fatalf("%s: schedule: %v", alg.name, err)
		}
		simRes, err := flexopt.Simulate(sys, res.Config, table, flexopt.DefaultSimOptions())
		if err != nil {
			t.Fatalf("%s: simulate: %v", alg.name, err)
		}
		if simRes.DeadlineMisses != 0 {
			t.Errorf("%s: %d observed misses on a schedulable config", alg.name, simRes.DeadlineMisses)
		}
		for id, r := range simRes.MaxResponse {
			if bound, _ := ana.Response(id); r > bound {
				t.Errorf("%s: simulated %v above analysed %v for activity %d", alg.name, r, bound, id)
			}
		}
	}
}

func TestPublicAPISystemJSON(t *testing.T) {
	sys := buildDemo(t)
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := flexopt.ReadSystem(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.App.Acts) != len(sys.App.Acts) {
		t.Errorf("round trip changed activity count: %d vs %d",
			len(back.App.Acts), len(sys.App.Acts))
	}
}

func TestPublicAPIGenerator(t *testing.T) {
	sys, err := flexopt.Generate(flexopt.DefaultGenParams(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Platform.NumNodes != 3 {
		t.Errorf("nodes = %d", sys.Platform.NumNodes)
	}
	if len(sys.App.Tasks(-1)) != 30 {
		t.Errorf("tasks = %d, want 30", len(sys.App.Tasks(-1)))
	}
}

func TestPublicAPICruise(t *testing.T) {
	sys, err := flexopt.CruiseController()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.App.Tasks(-1)); got != 54 {
		t.Errorf("cruise tasks = %d, want 54", got)
	}
}

func TestPublicAPIFrameIDs(t *testing.T) {
	sys := buildDemo(t)
	fids, err := flexopt.AssignFrameIDs(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(fids) != 1 {
		t.Fatalf("FrameIDs = %v, want exactly the one DYN message", fids)
	}
	for _, f := range fids {
		if f != 1 {
			t.Errorf("FrameID = %d, want 1", f)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if flexopt.Microseconds(2285.4) != 2285400*flexopt.Nanosecond {
		t.Error("Microseconds conversion wrong")
	}
	if flexopt.Milliseconds(16) != 16*flexopt.Millisecond {
		t.Error("Milliseconds conversion wrong")
	}
}

// TestPublicAPIPortfolio races the optimiser portfolio on the demo
// system through the facade and cross-checks the winner against a
// direct OBC-CF run.
func TestPublicAPIPortfolio(t *testing.T) {
	sys := buildDemo(t)
	opts := flexopt.DefaultOptions()
	pf, err := flexopt.Portfolio(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Runs) != len(flexopt.PortfolioAlgorithms()) {
		t.Fatalf("%d runs, want %d", len(pf.Runs), len(flexopt.PortfolioAlgorithms()))
	}
	if pf.Best == nil || !pf.Best.Schedulable {
		t.Fatalf("portfolio best = %+v, want a schedulable result", pf.Best)
	}
	cf, err := flexopt.OBCCF(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Best.Cost > cf.Cost {
		t.Errorf("portfolio best cost %v worse than plain OBC-CF %v", pf.Best.Cost, cf.Cost)
	}
}

// TestPublicAPICampaign streams a small population sweep as JSONL
// through the facade.
func TestPublicAPICampaign(t *testing.T) {
	specs := flexopt.PopulationSpecs([]int{2}, 2, 1, 2.0)
	opts := flexopt.DefaultOptions()
	opts.DYNGridCap = 16
	opts.MaxEvaluations = 150
	opts.SAIterations = 60
	var buf bytes.Buffer
	recs, err := flexopt.CampaignJSONL(context.Background(), specs, opts,
		flexopt.CampaignOptions{Workers: 2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("%d JSONL lines, want 2", lines)
	}
	for i, r := range recs {
		if r.Index != i || r.Err != "" || r.Best == "" {
			t.Errorf("record %d malformed: %+v", i, r)
		}
	}
}

// TestPublicAPIJobs drives the async job subsystem through the facade:
// submit a campaign over builder-made (uploaded) systems, follow its
// event stream, and fetch the result.
func TestPublicAPIJobs(t *testing.T) {
	mgr, err := flexopt.NewJobManager(nil, flexopt.JobManagerOptions{
		Workers: 1,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mgr.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	sys := buildDemo(t)
	var raw bytes.Buffer
	if err := sys.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	job, err := mgr.Submit(flexopt.JobSpec{
		Kind:       flexopt.JobCampaign,
		Algorithms: []string{"bbc", "obc-cf"},
		Tuning:     &flexopt.JobTuning{DYNGridCap: 16, MaxEvaluations: 150},
		Population: &flexopt.JobPopulation{Systems: []json.RawMessage{raw.Bytes()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != flexopt.JobQueued {
		t.Fatalf("submitted job is %s, want queued", job.Status)
	}

	_, events, cancel, err := mgr.Subscribe(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	last := -1
	for ev := range events {
		if ev.Job.Progress.Completed < last {
			t.Errorf("progress regressed: %d -> %d", last, ev.Job.Progress.Completed)
		}
		last = ev.Job.Progress.Completed
	}

	res, final, err := mgr.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != flexopt.JobDone {
		t.Fatalf("final status %s (error %q), want done", final.Status, final.Error)
	}
	if len(res.Records) != 1 || res.Records[0].Name != sys.Name || res.Records[0].Best == "" {
		t.Errorf("job records %+v, want one winning record for %s", res.Records, sys.Name)
	}
}
