package perfreg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flexray"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/synth"
)

// The suite's shared workload constructors. bench_test.go drives the
// same constructors under go test -bench, so the harness and the
// benchmarks cannot measure different code.

// SessionSystem returns the 4-node system the evaluation-session
// scenarios (and BenchmarkEvalSession) measure on.
func SessionSystem() (*model.System, error) {
	return synth.Generate(synth.DefaultParams(4, 123))
}

// SessionConfigCount is the length of the SessionConfigs candidate
// mix. The allocation passes run whole multiples of it, so per-eval
// allocation counts are integral and machine-independent.
const SessionConfigCount = 31

// SessionAllocsPerMix is the exact number of heap allocations one
// steady-state evaluation session performs over one full
// SessionConfigs mix (11 per candidate evaluation). Allocation
// counts on this path are deterministic — the README quotes this
// number and TestSessionAllocsPinned enforces it, so the claim cannot
// drift from the code.
const SessionAllocsPerMix = 341

// SessionConfigs builds the candidate stream of the evaluation
// scenarios: a DYN-length sweep at fixed geometry interleaved with
// SA-style FrameID rotations — the two workloads the optimisers
// actually produce.
func SessionConfigs(sys *model.System) ([]*flexray.Config, error) {
	res, err := core.BBC(sys, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	base := res.Config
	msgs := make([]model.ActID, 0, len(base.FrameID))
	for m := range base.FrameID {
		msgs = append(msgs, m)
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i] < msgs[j] })

	var cfgs []*flexray.Config
	for i := 0; i < 16; i++ {
		c := base.Clone()
		c.NumMinislots += 4 * i
		cfgs = append(cfgs, c)
	}
	for r := 1; r < 16 && len(msgs) > 1; r++ {
		c := base.Clone()
		for i, m := range msgs {
			c.FrameID[m] = base.FrameID[msgs[(i+r)%len(msgs)]]
		}
		cfgs = append(cfgs, c)
	}
	if len(cfgs) != SessionConfigCount {
		return nil, fmt.Errorf("perfreg: session mix has %d configs, want %d", len(cfgs), SessionConfigCount)
	}
	return cfgs, nil
}

// Fig7Population builds n Fig. 7 style systems (5 nodes, 45 tasks in
// the Section 7 utilisation bands) for the campaign scenarios.
func Fig7Population(n int) []synth.Params {
	specs := make([]synth.Params, n)
	for i := range specs {
		sp := synth.DefaultParams(5, 42+int64(i))
		sp.TasksPerNode = 9
		sp.TTShare = 0.34
		sp.BusUtilMin, sp.BusUtilMax = 0.30, 0.45
		sp.DeadlineFactor = 2.0
		specs[i] = sp
	}
	return specs
}

// CampaignTuning bounds the optimiser budgets so one campaign pass
// over a Fig. 7 system stays well under a second and the scenarios
// (and scaling benchmarks) iterate.
func CampaignTuning() core.Options {
	o := core.DefaultOptions()
	o.DYNGridCap = 12
	o.SlotCountCap = 2
	o.SlotLenSteps = 3
	o.MaxEvaluations = 120
	o.SAIterations = 40
	return o
}

// campaignSystems is the population size of the campaign scenarios:
// enough systems that the parallel scenario has work to shard, few
// enough that one pass stays around a second.
const campaignSystems = 4

// storeRecordCount is the synthetic history length of the store
// scenarios.
const storeRecordCount = 300

// Suite returns the curated macro-benchmark suite: the hot paths the
// repo's performance work targets, one scenario per claim worth
// defending. Scenario setups construct their inputs from scratch, so
// suites are independent and reusable.
func Suite() []*Scenario {
	return []*Scenario{
		{
			Name:        "eval/fresh",
			Description: "one candidate evaluation on the from-scratch path (schedule build + single-use analyzer)",
			Unit:        "eval",
			Serial:      true,
			AllocWarmup: SessionConfigCount,
			AllocOps:    2 * SessionConfigCount,
			Setup:       evalSetup(false),
		},
		{
			Name:        "eval/session",
			Description: "one candidate evaluation through a long-lived session (reusable analyzer + plan table rebuilt in place)",
			Unit:        "eval",
			Serial:      true,
			AllocWarmup: 2 * SessionConfigCount,
			AllocOps:    4 * SessionConfigCount,
			Setup:       evalSetup(true),
		},
		{
			Name:        "sched/build-table",
			Description: "one schedule-table construction through a reused sched.Plan, cycling over the distinct slot geometries of the session mix",
			Unit:        "table",
			Serial:      true,
			AllocWarmup: sessionGeometries,
			AllocOps:    2 * sessionGeometries,
			Setup:       buildTableSetup,
		},
		{
			Name:        "campaign/serial",
			Description: "campaign-engine pass over the Fig. 7 population at 1 worker",
			Unit:        "system",
			OpsPerCall:  campaignSystems,
			AllocWarmup: 1,
			AllocOps:    2,
			// The engine spawns goroutines even at one worker;
			// scheduling shifts a few allocations either way.
			AllocTolPct: 25,
			BytesTolPct: 25,
			Setup:       campaignSetup(1),
		},
		{
			Name:        "campaign/parallel",
			Description: "campaign-engine pass over the Fig. 7 population at GOMAXPROCS workers",
			Unit:        "system",
			OpsPerCall:  campaignSystems,
			AllocWarmup: 1,
			AllocOps:    2,
			TimeTolPct:  25,
			// The parallel allocation count is as stable across runs as
			// the serial one (goroutine scheduling shifts a few
			// allocations either way), so it gets the same gate.
			AllocTolPct: 25,
			BytesTolPct: 25,
			Setup:       campaignSetup(runtime.GOMAXPROCS(0)),
		},
		{
			Name:        "jobs/pipeline",
			Description: "async job submit→drain latency (campaign job through the manager's queue and worker pool)",
			Unit:        "job",
			TimeTolPct:  25,
			AllocTolPct: NoGate,
			BytesTolPct: NoGate,
			Setup:       jobsPipelineSetup,
		},
		{
			Name:        "jobs/distributed-drain",
			Description: "distributed campaign submit→drain latency (coordinator + 2 loopback lease workers over HTTP)",
			Unit:        "job",
			TimeTolPct:  25,
			AllocTolPct: NoGate,
			BytesTolPct: NoGate,
			Setup:       distributedDrainSetup,
		},
		{
			Name:        "serve/traced-request",
			Description: "fully sampled HTTP request round-trip: traceparent parse, root+child span, span-store record, exemplar observe",
			Unit:        "req",
			Serial:      true,
			// Warm past the span store's steady state (the bounded
			// store starts evicting a trace per request) so the
			// measured ops see the long-lived allocation profile.
			AllocWarmup: 64,
			AllocOps:    128,
			// The store's FIFO eviction queue compacts periodically, so
			// a few allocations amortise across ops.
			AllocTolPct: 10,
			BytesTolPct: 25,
			Setup:       tracedRequestSetup,
		},
		{
			Name:        "lint/report",
			Description: "full policy-pack lint report (fact extraction incl. schedule build + analysis, every rule evaluated) on the session system",
			Unit:        "report",
			Serial:      true,
			AllocWarmup: 4,
			AllocOps:    8,
			// The fact extractor re-runs the schedule build and holistic
			// analysis each report; a few allocations shift with map
			// sizing on that path.
			AllocTolPct: 5,
			BytesTolPct: 25,
			Setup:       lintReportSetup,
		},
		{
			Name:        "fig7/sweep",
			Description: "Fig. 7 response-time-vs-DYN-length regeneration (9 points, engine-parallel)",
			Unit:        "point",
			OpsPerCall:  9,
			TimeTolPct:  25,
			AllocTolPct: NoGate,
			BytesTolPct: NoGate,
			Setup:       fig7Setup,
		},
		{
			Name:        "fig9/quick",
			Description: "reduced Fig. 9 heuristic evaluation (2 systems × 4 optimisers, engine-parallel)",
			Unit:        "system",
			OpsPerCall:  2,
			TimeTolPct:  25,
			AllocTolPct: NoGate,
			BytesTolPct: NoGate,
			Setup:       fig9Setup,
		},
		{
			Name:        "store/replay",
			Description: "JSONL job-store open + full history replay",
			Unit:        "record",
			OpsPerCall:  storeRecordCount,
			Serial:      true,
			Setup:       storeReplaySetup,
		},
		{
			Name:        "store/compact",
			Description: "atomic JSONL job-store compaction (temp file + fsync + rename)",
			Unit:        "record",
			OpsPerCall:  storeRecordCount,
			Serial:      true,
			// fsync latency dominates and varies with the filesystem.
			TimeTolPct:  40,
			AllocTolPct: 5,
			Setup:       storeCompactSetup,
		},
	}
}

var errInfeasible = errors.New("candidate unexpectedly infeasible")

// evalSetup builds the candidate-evaluation op: the session path when
// session is true, the fresh sched.Build path otherwise. Both cycle
// through the same candidate mix.
func evalSetup(session bool) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		sys, err := SessionSystem()
		if err != nil {
			return nil, nil, err
		}
		cfgs, err := SessionConfigs(sys)
		if err != nil {
			return nil, nil, err
		}
		opts := sched.DefaultOptions()
		i := 0
		if session {
			sess := core.NewSession(sys, opts)
			return func() error {
				res, _ := sess.Eval(cfgs[i%len(cfgs)])
				i++
				if res == nil {
					return errInfeasible
				}
				return nil
			}, nil, nil
		}
		return func() error {
			_, _, err := sched.Build(sys, cfgs[i%len(cfgs)], opts)
			i++
			return err
		}, nil, nil
	}
}

// sessionGeometries is the number of distinct slot geometries in the
// SessionConfigs mix: each step of the DYN-length sweep is one, and the
// FrameID rotations reuse the base geometry.
const sessionGeometries = 16

// buildTableSetup measures the schedule-table layer alone: one
// Plan.BuildTable per op over the mix's distinct slot geometries — the
// build every session evaluation runs, resetting the plan's one table.
func buildTableSetup() (func() error, func(), error) {
	sys, err := SessionSystem()
	if err != nil {
		return nil, nil, err
	}
	cfgs, err := SessionConfigs(sys)
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	var geoms []*flexray.Config
	for _, c := range cfgs {
		key := fmt.Sprint(c.StaticSlotLen, c.NumStaticSlots, c.DYNBus(), c.StaticSlotOwner)
		if !seen[key] {
			seen[key] = true
			geoms = append(geoms, c)
		}
	}
	if len(geoms) != sessionGeometries {
		return nil, nil, fmt.Errorf("perfreg: session mix has %d slot geometries, want %d", len(geoms), sessionGeometries)
	}
	plan := sched.NewPlan(sys)
	i := 0
	return func() error {
		_, err := plan.BuildTable(geoms[i%len(geoms)])
		i++
		return err
	}, nil, nil
}

// campaignSetup builds one campaign pass over the shared population
// at the given worker count. The budgets are half of CampaignTuning
// so a pass over the four systems stays around a second; the scaling
// benchmarks (BenchmarkCampaignWorkers) keep the full budget.
func campaignSetup(workers int) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		specs := Fig7Population(campaignSystems)
		opts := CampaignTuning()
		opts.MaxEvaluations /= 2
		opts.SAIterations /= 2
		copts := campaign.Options{Workers: workers}
		return func() error {
			return campaign.Run(context.Background(), specs, opts, copts,
				func(campaign.Record) error { return nil })
		}, nil, nil
	}
}

// jobsPipelineSetup measures the job subsystem end to end: one
// campaign job submitted to a running manager, op returns when the
// job drains to done.
func jobsPipelineSetup() (func() error, func(), error) {
	mgr, err := jobs.NewManager(nil, jobs.ManagerOptions{
		Workers:  2,
		QueueCap: 16,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		return nil, nil, err
	}
	tuning := CampaignTuning()
	tuning.SAIterations = 20
	tuning.MaxEvaluations = 60
	spec := jobs.Spec{
		Kind:   jobs.KindCampaign,
		Tuning: jobs.TuningFromOptions(tuning),
		Population: &jobs.Population{
			NodeCounts:     []int{2},
			AppsPerCount:   2,
			Seed:           7,
			DeadlineFactor: 2.0,
		},
	}
	op := func() error {
		j, err := mgr.Submit(spec)
		if err != nil {
			return err
		}
		_, ch, cancel, err := mgr.Subscribe(j.ID)
		if err != nil {
			return err
		}
		defer cancel()
		for range ch {
			// Drain until the manager closes the stream at the
			// terminal transition.
		}
		final, err := mgr.Get(j.ID)
		if err != nil {
			return err
		}
		if final.Status != jobs.StatusDone {
			return fmt.Errorf("job %s: %s (%s)", j.ID, final.Status, final.Error)
		}
		return nil
	}
	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	}
	return op, cleanup, nil
}

// distributedDrainSetup measures the coordinator/worker path end to
// end: a distributed campaign job sharded through /v1/leases, executed
// by two loopback worker peers, merged and drained to done. The delta
// against jobs/pipeline is the lease-protocol overhead (HTTP hops,
// durable shard completes, merge) on an otherwise identical workload.
func distributedDrainSetup() (func() error, func(), error) {
	mgr, err := jobs.NewManager(nil, jobs.ManagerOptions{
		Workers:      1,
		QueueCap:     16,
		LeaseTTL:     time.Minute,
		LeaseSystems: 1,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	jobs.NewLeaseAPI(mgr).Register(mux)
	srv := httptest.NewServer(mux)

	wctx, wstop := context.WithCancel(context.Background())
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		w := jobs.NewWorker(jobs.WorkerOptions{
			ID:      fmt.Sprintf("perf-w%d", i+1),
			BaseURL: srv.URL,
			Poll:    2 * time.Millisecond,
			Workers: 1,
			Logf:    func(string, ...any) {},
		})
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(wctx)
		}()
	}

	tuning := CampaignTuning()
	tuning.SAIterations = 20
	tuning.MaxEvaluations = 60
	spec := jobs.Spec{
		Kind:       jobs.KindCampaign,
		Tuning:     jobs.TuningFromOptions(tuning),
		Distribute: true,
		Population: &jobs.Population{
			NodeCounts:     []int{2},
			AppsPerCount:   2,
			Seed:           7,
			DeadlineFactor: 2.0,
		},
	}
	op := func() error {
		j, err := mgr.Submit(spec)
		if err != nil {
			return err
		}
		_, ch, cancel, err := mgr.Subscribe(j.ID)
		if err != nil {
			return err
		}
		defer cancel()
		for range ch {
			// Drain until the terminal transition closes the stream.
		}
		final, err := mgr.Get(j.ID)
		if err != nil {
			return err
		}
		if final.Status != jobs.StatusDone {
			return fmt.Errorf("job %s: %s (%s)", j.ID, final.Status, final.Error)
		}
		return nil
	}
	cleanup := func() {
		wstop()
		<-done
		<-done
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	}
	return op, cleanup, nil
}

// tracedRequestSetup measures the cost a fully sampled trace adds to
// one request: the same span pipeline flexray-serve's middleware runs
// (traceparent parse, root span, one child, store record, histogram
// exemplar), driven through an http.ServeMux with a recorder so no
// network noise enters the count. The store is bounded small enough
// that steady state — one trace evicted per request — is reached
// within the allocation warmup.
func tracedRequestSetup() (func() error, func(), error) {
	reg := obs.NewRegistry()
	store := obs.NewSpanStore(obs.SpanStoreOptions{MaxSpans: 256, MaxSpansPerTrace: 16})
	tracer := obs.NewTracer(obs.TracerOptions{Store: store, SampleRatio: 1})
	hist := reg.Histogram("flexray_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", obs.DefBuckets, "route", "/v1/ping")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", func(w http.ResponseWriter, r *http.Request) {
		parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		ctx, span := tracer.StartRoot(r.Context(), "http GET /v1/ping", parent)
		span.SetString("http.route", "/v1/ping")
		_, child := obs.StartSpan(ctx, "work")
		child.SetInt("items", 1)
		child.End()
		w.Header().Set("X-Trace-Id", span.TraceID())
		w.WriteHeader(http.StatusOK)
		span.SetInt("http.status", http.StatusOK)
		span.End()
		hist.ObserveExemplar(0.001, span.TraceID())
	})
	i := 0
	op := func() error {
		i++
		req := httptest.NewRequest(http.MethodGet, "/v1/ping", nil)
		req.Header.Set(obs.TraceparentHeader, fmt.Sprintf("00-%032x-%016x-01", i, i))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced request: %d", rec.Code)
		}
		if rec.Header().Get("X-Trace-Id") == "" {
			return errors.New("traced request carried no X-Trace-Id")
		}
		return nil
	}
	return op, nil, nil
}

// lintReportSetup measures one full flexray-lint report over the
// session system configured by its own BBC result: fact extraction
// (schedule build + holistic analysis) plus the evaluation of every
// registered policy rule. This is the unit of work POST /v1/lint and
// the CLI spend per request.
func lintReportSetup() (func() error, func(), error) {
	sys, err := SessionSystem()
	if err != nil {
		return nil, nil, err
	}
	res, err := core.BBC(sys, core.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	cfg := res.Config
	rules := len(lint.Rules())
	op := func() error {
		rep, err := lint.Run(sys, cfg, lint.DefaultOptions())
		if err != nil {
			return err
		}
		if rep.Summary.Rules != rules {
			return fmt.Errorf("lint report covered %d rules, want %d", rep.Summary.Rules, rules)
		}
		if !rep.Scheduled {
			return errors.New("lint report skipped the schedule facts")
		}
		return nil
	}
	return op, nil, nil
}

func fig7Setup() (func() error, func(), error) {
	p := experiments.DefaultFig7Params()
	p.Points = 9
	return func() error {
		_, err := experiments.Fig7(p)
		return err
	}, nil, nil
}

func fig9Setup() (func() error, func(), error) {
	p := experiments.QuickFig9Params()
	p.AppsPerSet = 1
	p.NodeCounts = []int{2, 3}
	return func() error {
		res, err := experiments.Fig9(p)
		if err != nil {
			return err
		}
		if len(res.Cells) == 0 {
			return errors.New("fig9: no cells")
		}
		return nil
	}, nil, nil
}

// storeHistory synthesises n records of realistic job history:
// submit → running → done triples carrying a small campaign spec and
// result, the shape a long-lived flexray-serve store accumulates.
func storeHistory(n int) []jobs.StoreRecord {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	spec := &jobs.Spec{
		Kind: jobs.KindCampaign,
		Population: &jobs.Population{
			NodeCounts: []int{2, 3}, AppsPerCount: 2, Seed: 9, DeadlineFactor: 2.0,
		},
	}
	result := &jobs.Result{
		Records: []campaign.Record{{Name: "sys", Nodes: 3, Best: "OBC-CF", BestCost: 42.5}},
	}
	resBytes, _ := json.Marshal(result)
	recs := make([]jobs.StoreRecord, 0, n)
	for i := 0; len(recs) < n; i++ {
		id := fmt.Sprintf("job-%06d", i)
		t := base.Add(time.Duration(i) * time.Second)
		recs = append(recs,
			jobs.StoreRecord{Type: "submit", ID: id, Time: t, Spec: spec},
			jobs.StoreRecord{Type: "status", ID: id, Time: t.Add(time.Second), Status: jobs.StatusRunning},
			jobs.StoreRecord{Type: "status", ID: id, Time: t.Add(2 * time.Second), Status: jobs.StatusDone,
				Progress: &jobs.Progress{Total: 4, Completed: 4},
				Result:   result, ResultBytes: int64(len(resBytes))},
		)
	}
	return recs[:n]
}

// writeHistory writes records as the store's JSONL grammar.
func writeHistory(path string, recs []jobs.StoreRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func storeReplaySetup() (func() error, func(), error) {
	dir, err := os.MkdirTemp("", "perfreg-store-")
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "jobs.jsonl")
	if err := writeHistory(path, storeHistory(storeRecordCount)); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	op := func() error {
		st, err := jobs.NewFileStore(path)
		if err != nil {
			return err
		}
		n := 0
		if err := st.Replay(func(jobs.StoreRecord) error { n++; return nil }); err != nil {
			st.Close()
			return err
		}
		if n != storeRecordCount {
			st.Close()
			return fmt.Errorf("replayed %d records, want %d", n, storeRecordCount)
		}
		return st.Close()
	}
	return op, func() { os.RemoveAll(dir) }, nil
}

func storeCompactSetup() (func() error, func(), error) {
	dir, err := os.MkdirTemp("", "perfreg-compact-")
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "jobs.jsonl")
	recs := storeHistory(storeRecordCount)
	if err := writeHistory(path, recs); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	st, err := jobs.NewFileStore(path)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	op := func() error {
		// Each op rewrites the full history to the same snapshot —
		// the worst-case (nothing evictable) compaction.
		return st.Compact(recs)
	}
	cleanup := func() {
		st.Close()
		os.RemoveAll(dir)
	}
	return op, cleanup, nil
}
