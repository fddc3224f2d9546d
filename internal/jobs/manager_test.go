package jobs

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
)

// quickTuning mirrors the reduced budgets of the serve tests: every
// job finishes in well under a second.
func quickTuning() *Tuning {
	return &Tuning{DYNGridCap: 24, SlotCountCap: 2, SlotLenSteps: 3, MaxEvaluations: 300, SAIterations: 120}
}

func sysJSON(t *testing.T, nodes int, seed int64) json.RawMessage {
	t.Helper()
	sp := synth.DefaultParams(nodes, seed)
	sp.DeadlineFactor = 2.0
	sys, err := synth.Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestManager(t *testing.T, store Store, opts ManagerOptions) *Manager {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := NewManager(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return m
}

func waitStatus(t *testing.T, m *Manager, id string, want Status) Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == want {
			return j
		}
		if j.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.Status, j.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to reach %s", id, want)
	return Job{}
}

// TestOptimizeJob: an optimize job completes and its best cost matches
// a direct portfolio run on the same system.
func TestOptimizeJob(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 2})
	raw := sysJSON(t, 2, 5)
	job, err := m.Submit(Spec{
		Kind: KindOptimize, System: raw,
		Algorithms: []string{"bbc", "obc-cf"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, job.ID, StatusDone)
	if done.Progress.Completed != 1 || done.Progress.Total != 1 {
		t.Errorf("progress %+v, want 1/1", done.Progress)
	}
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimize == nil || len(res.Optimize.Config) == 0 {
		t.Fatalf("optimize result missing payload: %+v", res)
	}

	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := campaign.Portfolio(context.Background(), sys, quickTuning().Apply(core.DefaultOptions()),
		campaign.EngineOptions{Workers: 1}, "bbc", "obc-cf")
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimize.Cost != pf.Best.Cost || res.Optimize.Algorithm != done.Progress.Best {
		t.Errorf("job cost/alg (%v, %s vs progress %s), direct cost %v",
			res.Optimize.Cost, res.Optimize.Algorithm, done.Progress.Best, pf.Best.Cost)
	}
	if finished, eng := m.List(StatusDone), m.EngineTotals(); len(finished) < 1 || eng.Evaluations == 0 {
		t.Errorf("manager has %d done jobs and engine totals %+v, want done>=1 and evaluations>0", len(finished), eng)
	}
}

// TestCampaignJobParity: a synthesised campaign job reproduces a
// direct campaign.Run over the same population, as one shard or one
// shard per system, and a local campaign never touches the lease
// table: nothing is listed while it runs and no lease counter moves.
func TestCampaignJobParity(t *testing.T) {
	pop := &Population{NodeCounts: []int{2}, AppsPerCount: 2, Seed: 7, DeadlineFactor: 2.0}
	specs := campaign.PopulationSpecs(pop.NodeCounts, pop.AppsPerCount, pop.Seed, pop.DeadlineFactor)
	var want []campaign.Record
	err := campaign.Run(context.Background(), specs, quickTuning().Apply(core.DefaultOptions()),
		campaign.Options{Workers: 1, Algorithms: []string{"bbc", "obc-cf"}},
		func(r campaign.Record) error { want = append(want, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSystems := range []int{0, 1} {
		t.Run(fmt.Sprintf("shard_systems=%d", shardSystems), func(t *testing.T) {
			reg := obs.NewRegistry()
			m := newTestManager(t, nil, ManagerOptions{Workers: 1, EvalWorkers: 2, Metrics: NewMetrics(reg)})
			job, err := m.Submit(Spec{
				Kind: KindCampaign, Population: pop, ShardSystems: shardSystems,
				Algorithms: []string{"bbc", "obc-cf"}, Tuning: quickTuning(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// waitStatus, checking the lease table on every poll.
			deadline := time.Now().Add(2 * time.Minute)
			for {
				if ls := m.Leases().Leases; len(ls) != 0 {
					t.Fatalf("local campaign listed leases %+v", ls)
				}
				j, err := m.Get(job.ID)
				if err != nil {
					t.Fatal(err)
				}
				if j.Status.Terminal() || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			done := waitStatus(t, m, job.ID, StatusDone)
			res, _, err := m.Result(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != 2 {
				t.Fatalf("%d records, want 2", len(res.Records))
			}
			if done.Progress.Total != 2 || done.Progress.Completed != 2 {
				t.Errorf("progress %+v, want 2/2", done.Progress)
			}
			for i, rec := range res.Records {
				if rec.Index != i || rec.Name != want[i].Name || rec.BestCost != want[i].BestCost || rec.Best != want[i].Best {
					t.Errorf("record %d: job (%s %s %v), direct (%s %s %v)",
						i, rec.Name, rec.Best, rec.BestCost, want[i].Name, want[i].Best, want[i].BestCost)
				}
			}
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			for _, zero := range []string{
				"flexray_lease_granted_total 0\n", "flexray_lease_completed_total 0\n",
				"flexray_lease_expired_total 0\n", "flexray_lease_failed_total 0\n",
				"flexray_lease_pending 0\n", "flexray_lease_active 0\n",
			} {
				if !strings.Contains(sb.String(), zero) {
					t.Errorf("scrape lacks %q: a local campaign moved the lease series", strings.TrimSpace(zero))
				}
			}
		})
	}
}

// TestRetainedJobsDropResults: the records of a finished local campaign
// job and the runs of an optimize job keep no optimiser Result, and
// dropping it leaves the JSON result byte for byte what it would be
// with the direct campaign.Run's Results in place. withoutResults
// leaves its argument alone.
func TestRetainedJobsDropResults(t *testing.T) {
	pop := &Population{NodeCounts: []int{2}, AppsPerCount: 2, Seed: 7, DeadlineFactor: 2.0}
	algs := []string{"bbc", "obc-cf"}
	var want []campaign.Record
	err := campaign.Run(context.Background(),
		campaign.PopulationSpecs(pop.NodeCounts, pop.AppsPerCount, pop.Seed, pop.DeadlineFactor),
		quickTuning().Apply(core.DefaultOptions()), campaign.Options{Workers: 1, Algorithms: algs},
		func(r campaign.Record) error { want = append(want, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	camp, err := m.Submit(Spec{Kind: KindCampaign, Population: pop, Algorithms: algs, Tuning: quickTuning()})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Submit(Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5), Algorithms: algs, Tuning: quickTuning()})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, camp.ID, StatusDone)
	waitStatus(t, m, opt.ID, StatusDone)
	res, _, err := m.Result(camp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("%d records, want %d", len(res.Records), len(want))
	}
	// The job's records with the direct run's Results put back.
	restored := slices.Clone(res.Records)
	for i, rec := range res.Records {
		if len(rec.Runs) != len(want[i].Runs) {
			t.Fatalf("record %d: %d runs, want %d", i, len(rec.Runs), len(want[i].Runs))
		}
		restored[i].Runs = slices.Clone(rec.Runs)
		for k, run := range rec.Runs {
			if run.Result != nil {
				t.Errorf("record %d run %s keeps its optimiser Result", i, run.Algorithm)
			}
			if want[i].Runs[k].Result == nil {
				t.Fatalf("direct record %d run %s has no Result to restore", i, run.Algorithm)
			}
			restored[i].Runs[k].Result = want[i].Runs[k].Result
		}
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	with, err := json.Marshal(&Result{Records: restored})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, with) {
		t.Errorf("dropping Results changed the JSON result:\n%s\nwith Results:\n%s", got, with)
	}

	ores, _, err := m.Result(opt.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range ores.Optimize.Runs {
		if run.Result != nil {
			t.Errorf("optimize run %s keeps its optimiser Result", run.Algorithm)
		}
	}

	runs := want[0].Runs
	if out := withoutResults(runs); out[0].Result != nil || runs[0].Result == nil {
		t.Errorf("withoutResults: copy keeps %v, argument lost %v", out[0].Result != nil, runs[0].Result == nil)
	}
}

// TestCampaignUploadedSystems: a campaign over uploaded systems
// matches per-system optimize runs.
func TestCampaignUploadedSystems(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	pop := &Population{Systems: []json.RawMessage{sysJSON(t, 2, 5), sysJSON(t, 3, 9)}}
	job, err := m.Submit(Spec{
		Kind: KindCampaign, Population: pop,
		Algorithms: []string{"bbc"}, Tuning: quickTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("%d records, want 2", len(res.Records))
	}
	for i, raw := range pop.Systems {
		sys, err := model.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BBC(sys, quickTuning().Apply(core.DefaultOptions()))
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Records[i]
		if rec.Name != sys.Name || rec.BestCost != want.Cost {
			t.Errorf("record %d: (%s, %v), want (%s, %v)", i, rec.Name, rec.BestCost, sys.Name, want.Cost)
		}
	}
}

// TestSweepJob: analyze and simulate sweeps over configurations
// produced by the optimisers.
func TestSweepJob(t *testing.T) {
	raw := sysJSON(t, 2, 5)
	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickTuning().Apply(core.DefaultOptions())
	bbc, err := core.BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := core.OBCCF(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []json.RawMessage
	for _, res := range []*core.Result{bbc, cf} {
		var buf bytes.Buffer
		if err := res.Config.WriteJSON(&buf, sys); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, buf.Bytes())
	}

	m := newTestManager(t, nil, ManagerOptions{Workers: 2})
	// Workers: 4 exercises the sharded sweep path (per-goroutine
	// sessions); results are positional, so parity holds regardless.
	ana, err := m.Submit(Spec{Kind: KindSweep, System: raw, Configs: cfgs, Workers: 4, Tuning: quickTuning()})
	if err != nil {
		t.Fatal(err)
	}
	simu, err := m.Submit(Spec{Kind: KindSweep, System: raw, Configs: cfgs, Mode: "simulate", Repetitions: 1, Tuning: quickTuning()})
	if err != nil {
		t.Fatal(err)
	}

	waitStatus(t, m, ana.ID, StatusDone)
	res, _, err := m.Result(ana.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 2 {
		t.Fatalf("%d analyze points, want 2", len(res.Sweep))
	}
	if res.Sweep[0].Cost != bbc.Cost || res.Sweep[1].Cost != cf.Cost {
		t.Errorf("analyze costs (%v, %v), want (%v, %v)",
			res.Sweep[0].Cost, res.Sweep[1].Cost, bbc.Cost, cf.Cost)
	}
	if len(res.Sweep[0].ResponseUs) == 0 {
		t.Error("analyze point has no response times")
	}

	simDone := waitStatus(t, m, simu.ID, StatusDone)
	res, _, err = m.Result(simu.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 2 || len(res.Sweep[0].MaxResponseUs) == 0 || len(res.Sweep[0].Completions) == 0 {
		t.Fatalf("simulate sweep incomplete: %+v", res.Sweep)
	}
	// A simulate point carries its analysis too, and counts both
	// computations.
	if res.Sweep[0].AnalyzeResult == nil || res.Sweep[0].Cost != bbc.Cost {
		t.Errorf("simulate point 0 analysis %+v, want cost %v", res.Sweep[0].AnalyzeResult, bbc.Cost)
	}
	if got := simDone.Progress.Engine.Evaluations; got != 4 {
		t.Errorf("simulate sweep counted %d evaluations, want 4 (2 points x analysis + simulation)", got)
	}
}

// TestQueueOrder pins the priority queue: higher priority first, FIFO
// within one priority.
func TestQueueOrder(t *testing.T) {
	var h jobHeap
	for i, prio := range []int{0, 5, 5, 1} {
		heap.Push(&h, &job{id: fmt.Sprintf("j%d", i), seq: uint64(i), spec: Spec{Priority: prio}})
	}
	var got []string
	for h.Len() > 0 {
		got = append(got, heap.Pop(&h).(*job).id)
	}
	want := []string{"j1", "j2", "j3", "j0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestQueueFull: submissions beyond QueueCap shed with ErrQueueFull.
// The queue is filled white-box so the test does not race the workers.
func TestQueueFull(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, QueueCap: 2})
	m.mu.Lock()
	for i := 0; i < 2; i++ {
		j := &job{id: fmt.Sprintf("fake-%d", i), seq: m.seq, status: StatusQueued,
			heapIdx: -1, subs: map[*subscriber]struct{}{}}
		m.seq++
		m.jobs[j.id] = j
		heap.Push(&m.queue, j)
	}
	m.mu.Unlock()
	_, err := m.Submit(Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5), Algorithms: []string{"bbc"}, Tuning: quickTuning()})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}
}

// TestCancel: a queued job cancels immediately, a running one
// cooperatively; neither serves a result afterwards.
func TestCancel(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	// Default budgets over a 6-system population: runs long enough to
	// observe and cancel.
	long := Spec{Kind: KindCampaign, Population: &Population{
		NodeCounts: []int{4}, AppsPerCount: 6, Seed: 1, DeadlineFactor: 2.0,
	}}
	running, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, running.ID, StatusRunning)

	queued, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := m.Cancel(queued.ID); err != nil || j.Status != StatusCancelled {
		t.Fatalf("cancel queued: job %s, err %v", j.Status, err)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second cancel: %v, want ErrTerminal", err)
	}

	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, running.ID, StatusCancelled)
	if _, _, err := m.Result(running.ID); !errors.Is(err, ErrNoResult) {
		t.Errorf("result of cancelled job: %v, want ErrNoResult", err)
	}
	if _, err := m.Cancel("j-nonexistent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown id: %v, want ErrNotFound", err)
	}
}

// TestRestartResume is the durability pin: a manager closed with work
// outstanding checkpoints it; a new manager over the same store file
// serves the finished results immediately and runs the rest.
func TestRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	small := Spec{Kind: KindCampaign, Algorithms: []string{"bbc", "obc-cf"}, Tuning: quickTuning(),
		Population: &Population{NodeCounts: []int{2}, AppsPerCount: 2, Seed: 3, DeadlineFactor: 2.0}}

	store1, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(store1, ManagerOptions{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m1.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m1, a.ID, StatusDone)
	resA, _, err := m1.Result(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	bigger := small
	bigger.Population = &Population{NodeCounts: []int{2, 3}, AppsPerCount: 2, Seed: 4, DeadlineFactor: 2.0}
	b, err := m1.Submit(bigger)
	if err != nil {
		t.Fatal(err)
	}
	// Shut down immediately: b is queued or just running and must be
	// checkpointed, not lost.
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if jb, err := m1.Get(b.ID); err != nil || jb.Status != StatusQueued {
		t.Fatalf("after close, job b is %s (err %v), want queued", jb.Status, err)
	}
	// Cancelling a shutdown-checkpointed job must not panic: it is
	// queued but no longer on the heap. The closed store makes the
	// append best-effort, so the checkpoint below still resumes.
	if jb, err := m1.Cancel(b.ID); err != nil || jb.Status != StatusCancelled {
		t.Fatalf("cancel checkpointed job: %s, err %v", jb.Status, err)
	}

	store2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(store2, ManagerOptions{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.Close(context.Background()) })

	// The finished job's result is served from the store, before any
	// re-execution could have happened.
	resA2, jobA, err := m2.Result(a.ID)
	if err != nil {
		t.Fatalf("restarted manager lost finished result: %v", err)
	}
	if jobA.Status != StatusDone || len(resA2.Records) != len(resA.Records) {
		t.Fatalf("restarted result: status %s, %d records, want done with %d",
			jobA.Status, len(resA2.Records), len(resA.Records))
	}
	for i := range resA.Records {
		if resA2.Records[i].BestCost != resA.Records[i].BestCost {
			t.Errorf("record %d best cost drifted across restart: %v vs %v",
				i, resA2.Records[i].BestCost, resA.Records[i].BestCost)
		}
	}
	// The interrupted job resumes and completes.
	waitStatus(t, m2, b.ID, StatusDone)
	resB, _, err := m2.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(resB.Records) != 4 {
		t.Errorf("resumed campaign produced %d records, want 4", len(resB.Records))
	}
}

// TestCrashReplayResumesRunning replays the history a killed process
// leaves behind — a submit plus a running transition with no terminal
// record — and expects the job to run to completion.
func TestCrashReplayResumesRunning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5), Algorithms: []string{"bbc"}, Tuning: quickTuning()}
	if err := s.Append(StoreRecord{Type: recordSubmit, ID: "j-dead", Time: time.Now(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(StoreRecord{Type: recordStatus, ID: "j-dead", Time: time.Now(), Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, s2, ManagerOptions{Workers: 1})
	waitStatus(t, m, "j-dead", StatusDone)
	if res, _, err := m.Result("j-dead"); err != nil || res.Optimize == nil {
		t.Fatalf("resumed job result: %+v, err %v", res, err)
	}
}

// TestSubscribeMonotonic: the event stream never shows Completed
// decreasing and ends at the terminal state.
func TestSubscribeMonotonic(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	job, err := m.Submit(Spec{Kind: KindCampaign, Algorithms: []string{"bbc", "obc-cf"}, Tuning: quickTuning(),
		Population: &Population{NodeCounts: []int{2}, AppsPerCount: 4, Seed: 11, DeadlineFactor: 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	snap, ch, cancel, err := m.Subscribe(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	last := snap.Progress.Completed
	events := 0
	for ev := range ch {
		events++
		if ev.Job.Progress.Completed < last {
			t.Errorf("completed decreased: %d -> %d", last, ev.Job.Progress.Completed)
		}
		last = ev.Job.Progress.Completed
	}
	final, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %s (error %q), want done", final.Status, final.Error)
	}
	if final.Progress.Completed != 4 || final.Progress.Total != 4 {
		t.Errorf("final progress %+v, want 4/4", final.Progress)
	}
	if events == 0 {
		t.Error("no events delivered before the stream closed")
	}
	// Subscribing to a terminal job yields a closed channel at once.
	_, ch2, cancel2, err := m.Subscribe(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if _, open := <-ch2; open {
		t.Error("terminal-job subscription delivered an event, want closed channel")
	}
}

// TestSpecValidation rejects malformed specs at submission.
func TestSpecValidation(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	raw := sysJSON(t, 2, 5)
	for name, spec := range map[string]Spec{
		"unknown kind":     {Kind: "train"},
		"optimize no sys":  {Kind: KindOptimize},
		"bad algorithm":    {Kind: KindOptimize, System: raw, Algorithms: []string{"genetic"}},
		"campaign no pop":  {Kind: KindCampaign},
		"campaign empty":   {Kind: KindCampaign, Population: &Population{}},
		"campaign both":    {Kind: KindCampaign, Population: &Population{NodeCounts: []int{2}, AppsPerCount: 1, Systems: []json.RawMessage{raw}}},
		"sweep no configs": {Kind: KindSweep, System: raw},
		"sweep bad mode":   {Kind: KindSweep, System: raw, Configs: []json.RawMessage{[]byte(`{}`)}, Mode: "race"},
		"sweep bad config": {Kind: KindSweep, System: raw, Configs: []json.RawMessage{[]byte(`{"bogus":`)}},
		"bad system":       {Kind: KindOptimize, System: []byte(`{"nope"`)},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: submission accepted, want error", name)
		}
	}
	if list := m.List(""); len(list) != 0 {
		t.Errorf("invalid submissions left %d jobs behind", len(list))
	}
}
