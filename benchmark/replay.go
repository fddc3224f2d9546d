package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/synth"
)

// traceStats counts what the spans alone cannot tell.
type traceStats struct {
	mu sync.Mutex
	// hookCands counts candidates the optimisers handed the engine in
	// timed ops.
	hookCands int
	// deepEngineNs is the engine time of the ops whose candidates were
	// replayed, the base of campaign.engine_overhead_pct.
	deepEngineNs int64
	// replayOps, tables and unconverged describe the candidate
	// replays: ops replayed, distinct slot geometries built, analyses
	// that hit the fixpoint's iteration cap.
	replayOps   int
	tables      int
	unconverged int
}

// evalRecorder is a core.EvalHook decorator around the campaign engine:
// it times every call the optimiser makes and, when recording, keeps
// the candidates for the layer-by-layer replay.
type evalRecorder struct {
	inner  core.EvalHook
	parent openSpan
	record bool
	cands  []*flexray.Config
	n      int
	ns     int64
}

func (h *evalRecorder) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	s := h.parent.child("campaign.engine_eval")
	t := time.Now()
	res, cost := h.inner.Eval(sys, cfg, opts)
	h.ns += int64(time.Since(t))
	s.end()
	h.keep(cfg)
	return res, cost
}

func (h *evalRecorder) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	s := h.parent.child("campaign.engine_eval")
	t := time.Now()
	ress, costs := h.inner.EvalBatch(sys, cfgs, opts)
	h.ns += int64(time.Since(t))
	s.end()
	h.keep(cfgs...)
	return ress, costs
}

func (h *evalRecorder) keep(cfgs ...*flexray.Config) {
	h.n += len(cfgs)
	if h.record {
		for _, c := range cfgs {
			h.cands = append(h.cands, c.Clone())
		}
	}
}

// runAlgorithm dispatches one canonical algorithm as the campaign layer
// does.
func runAlgorithm(alg string, sys *model.System, opts core.Options) (*core.Result, error) {
	switch alg {
	case "BBC":
		return core.BBC(sys, opts)
	case "OBC-CF":
		return core.OBCCF(sys, opts)
	case "OBC-EE":
		return core.OBCEE(sys, opts)
	case "SA":
		return core.SA(sys, opts)
	}
	return nil, fmt.Errorf("unknown algorithm %q", alg)
}

func algoRun(alg string, res *core.Result, err error) campaign.AlgoRun {
	r := campaign.AlgoRun{Algorithm: alg, Result: res}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Cost, r.Schedulable, r.Evaluations = res.Cost, res.Schedulable, res.Evaluations
	r.ElapsedUs = res.Elapsed.Microseconds()
	return r
}

// geometryKey is the slot geometry a first-fit schedule table depends
// on — the key of core.Session's table memo.
func geometryKey(c *flexray.Config) string {
	b := binary.LittleEndian.AppendUint64(nil, uint64(c.StaticSlotLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.NumStaticSlots))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.DYNBus()))
	for _, o := range c.StaticSlotOwner {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	return string(b)
}

// replayCandidates re-evaluates an op's distinct candidates, untimed
// by the op: once through a fresh core.Session, then split into its
// layers — sched.BuildTable once per distinct slot geometry (what the
// session's memo builds), analysis Reset and Run per candidate. The
// difference between the two passes is core.layer_residual_pct.
func replayCandidates(rec *recorder, st *traceStats, sys *model.System, so sched.Options, cands []*flexray.Config) {
	root := rec.begin(rootReplay)
	defer root.end()
	seen := map[[16]byte]bool{}
	var uniq []*flexray.Config
	for _, c := range cands {
		if fp := c.Fingerprint(); !seen[fp] {
			seen[fp] = true
			uniq = append(uniq, c)
		}
	}
	sess := core.NewSession(sys, so)
	for _, c := range uniq {
		s := root.child("core.session_eval")
		sess.Eval(c)
		s.end()
	}
	type built struct {
		table *schedule.Table
		err   error
	}
	tables := map[string]built{}
	an := analysis.NewReusable(sys, so.Analysis)
	unconverged := 0
	for _, c := range uniq {
		key := geometryKey(c)
		b, ok := tables[key]
		if !ok {
			s := root.child("sched.build_table")
			b.table, b.err = sched.BuildTable(sys, c, so)
			s.end()
			tables[key] = b
		}
		if b.err != nil {
			continue
		}
		s := root.child("analysis.reset")
		an.Reset(c, b.table)
		s.end()
		s = root.child("analysis.run")
		res := an.Run()
		s.end()
		if !res.Converged {
			unconverged++
		}
	}
	st.mu.Lock()
	st.replayOps++
	st.tables += len(tables)
	st.unconverged += unconverged
	st.mu.Unlock()
}

// portfolio races the four optimisers over one engine exactly as
// campaign.Portfolio does, with an evalRecorder per algorithm under a
// "core.<alg>" span.
func portfolio(ctx context.Context, sys *model.System, opts core.Options, parent openSpan, record bool) ([]campaign.AlgoRun, []*evalRecorder) {
	engine := campaign.NewEngine(ctx, campaign.EngineOptions{})
	runs := make([]campaign.AlgoRun, len(campaign.Algorithms))
	hooks := make([]*evalRecorder, len(campaign.Algorithms))
	var wg sync.WaitGroup
	for k, alg := range campaign.Algorithms {
		h := &evalRecorder{inner: engine, record: record}
		hooks[k] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := parent.child("core." + algKey(alg))
			h.parent = sp
			o := opts
			o.Eval = h
			res, err := runAlgorithm(alg, sys, o)
			sp.end()
			runs[k] = algoRun(alg, res, err)
		}()
	}
	wg.Wait()
	return runs, hooks
}

// addHooks folds the hooks' counts of one timed op into st.
func addHooks(st *traceStats, hooks []*evalRecorder, deep bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, h := range hooks {
		st.hookCands += h.n
		if deep {
			st.deepEngineNs += h.ns
		}
	}
}

// cruiseReplayer replays optimize-cruise: model.ReadJSON, the portfolio
// race, Config.WriteJSON of the winner.
type cruiseReplayer struct {
	w   *optimizeCruise
	rec *recorder
	st  *traceStats
}

func (w *optimizeCruise) newReplayer(_ context.Context, _ *env, rec *recorder, st *traceStats) (replayer, error) {
	return &cruiseReplayer{w: w, rec: rec, st: st}, nil
}

func (r *cruiseReplayer) op(ctx context.Context, _ int, deep bool) (time.Duration, error) {
	start := time.Now()
	root := r.rec.begin(rootOp)
	s := root.child("model.read_json")
	sys, err := model.ReadJSON(bytes.NewReader(r.w.sysJSON))
	s.end()
	if err != nil {
		root.end()
		return 0, err
	}
	opts := core.DefaultOptions()
	runs, hooks := portfolio(ctx, sys, opts, root, deep)
	best := bestOf(runs)
	var buf bytes.Buffer
	s = root.child("flexray.write_json")
	if best != nil {
		err = best.Result.Config.WriteJSON(&buf, sys)
	}
	s.end()
	root.end()
	wall := time.Since(start)
	if best == nil {
		return wall, errors.New("no optimiser produced a result")
	}
	if err != nil {
		return wall, err
	}
	if err := checkCruise(best.Algorithm, best.Cost, runs); err != nil {
		return wall, err
	}
	if r.rec.enabled() {
		addHooks(r.st, hooks, deep)
	}
	if deep {
		var cands []*flexray.Config
		for _, h := range hooks {
			cands = append(cands, h.cands...)
		}
		replayCandidates(r.rec, r.st, sys, opts.Sched, cands)
	}
	return wall, nil
}

func (r *cruiseReplayer) close() error { return nil }

// bestOf picks the portfolio winner: the cheapest run, ties to the
// earlier algorithm of the canonical order.
func bestOf(runs []campaign.AlgoRun) *campaign.AlgoRun {
	var best *campaign.AlgoRun
	for k := range runs {
		r := &runs[k]
		if r.Result != nil && (best == nil || r.Cost < best.Cost) {
			best = r
		}
	}
	return best
}

// timedStore is the job store decorator of the replay: every Append is
// a "jobs.store.append" span of the op in flight. Embedding forwards
// Replay, Close, Compact and Size to the FileStore.
type timedStore struct {
	*jobs.FileStore
	rec *recorder
}

func (s timedStore) Append(r jobs.StoreRecord) error {
	op, start := s.rec.current(), s.rec.now()
	err := s.FileStore.Append(r)
	s.rec.addTo(op, "jobs.store.append", start, s.rec.now())
	return err
}

// leaseTransport is the lease worker's HTTP transport in the replay:
// it times claim, renew and complete calls as "jobs.lease.*" spans and
// marks the shard execution between a granted claim and its complete
// as a "campaign.shard" span. The worker holds one lease at a time.
type leaseTransport struct {
	base       http.RoundTripper
	rec        *recorder
	mu         sync.Mutex
	shardStart int64
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
	op, start := t.rec.current(), t.rec.now()
	t.mu.Lock()
	if call == "complete" && t.shardStart != 0 {
		t.rec.addTo(op, "campaign.shard", t.shardStart, start)
		t.shardStart = 0
	}
	t.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	end := t.rec.now()
	t.rec.addTo(op, "jobs.lease."+call, start, end)
	if call == "claim" && err == nil && resp.StatusCode == http.StatusOK {
		t.mu.Lock()
		t.shardStart = end
		t.mu.Unlock()
	}
	return resp, err
}

// jobsReplayer replays a campaign workload against an in-process
// jobs.Manager on a copy of the seeded history; the distributed one
// adds the lease API on a loopback listener and one lease worker.
type jobsReplayer struct {
	w     *campaignJobs
	rec   *recorder
	st    *traceStats
	mgr   *jobs.Manager
	store timedStore
	// distributed only:
	srv        *http.Server
	stopWorker context.CancelFunc
	workerDone chan struct{}
}

func (w *campaignJobs) newReplayer(ctx context.Context, e *env, rec *recorder, st *traceStats) (replayer, error) {
	path := filepath.Join(e.dir, "replay.jsonl")
	if err := copyFile(path, e.history); err != nil {
		return nil, err
	}
	fs, err := jobs.NewFileStore(path)
	if err != nil {
		return nil, err
	}
	r := &jobsReplayer{w: w, rec: rec, st: st, store: timedStore{FileStore: fs, rec: rec}}
	discard := func(string, ...any) {}
	// The server's defaults: two job workers, GOMAXPROCS evaluation
	// workers per job, four systems per lease.
	r.mgr, err = jobs.NewManager(r.store, jobs.ManagerOptions{
		Workers: 2, EvalWorkers: runtime.GOMAXPROCS(0), LeaseSystems: 4, Logf: discard,
	})
	if err != nil {
		fs.Close()
		return nil, err
	}
	if !w.distributed {
		return r, nil
	}
	mux := http.NewServeMux()
	jobs.NewLeaseAPI(r.mgr).Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.srv = &http.Server{Handler: mux}
	go r.srv.Serve(ln)
	worker := jobs.NewWorker(jobs.WorkerOptions{
		ID:      "benchmark-worker",
		BaseURL: "http://" + ln.Addr().String(),
		Client:  &http.Client{Transport: &leaseTransport{base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec}},
		Poll:    10 * time.Millisecond,
		Logf:    discard,
	})
	wctx, cancel := context.WithCancel(ctx)
	r.stopWorker, r.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(r.workerDone)
		worker.Run(wctx)
	}()
	return r, nil
}

func (r *jobsReplayer) op(ctx context.Context, i int, deep bool) (time.Duration, error) {
	start := time.Now()
	root := r.rec.begin(rootOp)
	s := root.child("jobs.submit")
	job, err := r.mgr.Submit(r.w.spec(i))
	s.end()
	if err != nil {
		root.end()
		return 0, err
	}
	final, err := r.awaitDone(ctx, job.ID)
	got := r.rec.now()
	if err != nil {
		root.end()
		return 0, err
	}
	if r.rec.enabled() {
		// The manager's own timestamps split the op: queued, running,
		// and the notification back to the waiting caller.
		add := func(name string, a, b int64) {
			r.rec.addTo(root.span, name, a, b)
		}
		add("jobs.queued", r.rec.at(final.SubmittedAt), r.rec.at(final.StartedAt))
		if !r.w.distributed {
			add("campaign.run", r.rec.at(final.StartedAt), r.rec.at(final.FinishedAt))
		}
		add("jobs.notify", r.rec.at(final.FinishedAt), got)
	}
	s = root.child("jobs.result")
	res, _, err := r.mgr.Result(job.ID)
	if err == nil {
		// The handler encodes the result for the response.
		_, err = json.Marshal(res)
	}
	s.end()
	root.end()
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	if final.Status != jobs.StatusDone {
		return wall, fmt.Errorf("job %s %s: %s", job.ID, final.Status, final.Error)
	}
	if err := r.w.checkRecords(i, res.Records); err != nil {
		return wall, err
	}
	if deep {
		return wall, r.replica(ctx, i, res.Records)
	}
	return wall, nil
}

// awaitDone waits for a job's terminal snapshot.
func (r *jobsReplayer) awaitDone(ctx context.Context, id string) (jobs.Job, error) {
	snap, ch, cancel, err := r.mgr.Subscribe(id)
	if err != nil {
		return jobs.Job{}, err
	}
	defer cancel()
	for !snap.Status.Terminal() {
		select {
		case <-ctx.Done():
			return snap, ctx.Err()
		case ev, open := <-ch:
			if !open {
				// The buffered terminal event may have been dropped.
				return r.mgr.Get(id)
			}
			snap = ev.Job
		}
	}
	return snap, nil
}

// replica re-runs job i's population system by system through the
// optimisers, as the campaign layer does, with recording hooks — the
// manager offers no hook of its own — and replays the candidates. Its
// runs must equal the job's.
func (r *jobsReplayer) replica(ctx context.Context, i int, want []campaign.Record) error {
	root := r.rec.begin(rootReplay)
	defer root.end()
	for k, sp := range r.w.specs(i) {
		sys, err := synth.Generate(sp)
		if err != nil {
			return err
		}
		runs, hooks := optimiseSystem(ctx, sys, r.w.opts, root)
		addHooks(r.st, hooks, true)
		if err := sameRuns(runs, want[k].Runs); err != nil {
			return fmt.Errorf("replayed record %d: %w", k, err)
		}
		var cands []*flexray.Config
		for _, h := range hooks {
			cands = append(cands, h.cands...)
		}
		replayCandidates(r.rec, r.st, sys, r.w.opts.Sched, cands)
	}
	return nil
}

// optimiseSystem runs the portfolio in order on one system over a
// one-worker engine, warm-starting SA from the best OBC configuration —
// a campaign's per-system step.
func optimiseSystem(ctx context.Context, sys *model.System, opts core.Options, parent openSpan) ([]campaign.AlgoRun, []*evalRecorder) {
	engine := campaign.NewEngine(ctx, campaign.EngineOptions{Workers: 1})
	var (
		runs  []campaign.AlgoRun
		hooks []*evalRecorder
		obc   *core.Result
	)
	for _, alg := range campaign.Algorithms {
		sp := parent.child("core." + algKey(alg))
		h := &evalRecorder{inner: engine, parent: sp, record: true}
		o := opts
		o.Eval = h
		if alg == "SA" && obc != nil {
			o.SAWarmStart = obc.Config
		}
		res, err := runAlgorithm(alg, sys, o)
		sp.end()
		runs = append(runs, algoRun(alg, res, err))
		hooks = append(hooks, h)
		if err == nil && (alg == "OBC-CF" || alg == "OBC-EE") && (obc == nil || res.Cost < obc.Cost) {
			obc = res
		}
	}
	return runs, hooks
}

// sameRuns compares the outcome fields of two run lists.
func sameRuns(got, want []campaign.AlgoRun) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d runs, want %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Algorithm != w.Algorithm || g.Cost != w.Cost || g.Schedulable != w.Schedulable ||
			g.Evaluations != w.Evaluations || g.Err != w.Err {
			return fmt.Errorf("%s: cost %v with %d evaluations, want %v with %d",
				g.Algorithm, g.Cost, g.Evaluations, w.Cost, w.Evaluations)
		}
	}
	return nil
}

func (r *jobsReplayer) close() error {
	if r.stopWorker != nil {
		r.stopWorker()
		<-r.workerDone
	}
	if r.srv != nil {
		r.srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.mgr.Close(ctx)
	return errors.Join(err, r.store.Close())
}

// checkReplayer replays check-mix through the handlers' calls:
// model.ReadJSON, flexray.ReadJSON (+ Validate), then sched.Build,
// sched.Build + the simulator, or lint.Run.
type checkReplayer struct {
	w   *checkMix
	rec *recorder
	st  *traceStats
}

func (w *checkMix) newReplayer(_ context.Context, _ *env, rec *recorder, st *traceStats) (replayer, error) {
	return &checkReplayer{w: w, rec: rec, st: st}, nil
}

func (r *checkReplayer) op(_ context.Context, i int, deep bool) (time.Duration, error) {
	cs, kind := r.w.pick(i)
	start := time.Now()
	root := r.rec.begin(rootOp)
	s := root.child("model.read_json")
	sys, err := model.ReadJSON(bytes.NewReader(cs.sysJSON))
	s.end()
	var cfg *flexray.Config
	if err == nil {
		s = root.child("flexray.read_json")
		cfg, err = flexray.ReadJSON(bytes.NewReader(cs.cfgJSON), sys)
		if err == nil && kind != "lint" {
			err = cfg.Validate(flexray.DefaultParams(), sys)
		}
		s.end()
	}
	var check func() error
	if err == nil {
		switch kind {
		case "analyze":
			s = root.child("sched.build")
			var res *analysis.Result
			_, res, err = sched.Build(sys, cfg, sched.DefaultOptions())
			s.end()
			check = func() error { return cs.checkAnalysis(analysisOf(sys, res)) }
		case "simulate":
			s = root.child("sched.build")
			var table *schedule.Table
			table, _, err = sched.Build(sys, cfg, sched.DefaultOptions())
			s.end()
			if err == nil {
				s = root.child("sim.run")
				var res *sim.Result
				res, err = simulate(sys, cfg, table)
				s.end()
				check = func() error { return cs.checkSim(simOf(sys, res)) }
			}
		default:
			s = root.child("lint.run")
			var rep *lint.Report
			rep, err = lint.Run(sys, cfg, lint.DefaultOptions())
			s.end()
			check = func() error {
				// Compare as the client would see it: through JSON.
				b, err := json.Marshal(rep)
				if err != nil {
					return err
				}
				var got lint.Report
				if err := json.Unmarshal(b, &got); err != nil {
					return err
				}
				return cs.checkLint(&got)
			}
		}
	}
	root.end()
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	if err := check(); err != nil {
		return wall, err
	}
	if deep {
		replayCandidates(r.rec, r.st, sys, sched.DefaultOptions(), []*flexray.Config{cfg})
	}
	return wall, nil
}

func (r *checkReplayer) close() error { return nil }

// timeStoreReplay opens a copy of the seeded history and replays it,
// as a starting server does: jobs.store.replay_ms.
func timeStoreReplay(e *env) (time.Duration, error) {
	path := filepath.Join(e.dir, "replay-timing.jsonl")
	if err := copyFile(path, e.history); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	start := time.Now()
	fs, err := jobs.NewFileStore(path)
	if err != nil {
		return 0, err
	}
	n := 0
	err = fs.Replay(func(jobs.StoreRecord) error { n++; return nil })
	d := time.Since(start)
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != 3*e.historyJobs {
		err = fmt.Errorf("replayed %d records, want %d", n, 3*e.historyJobs)
	}
	return d, err
}
