package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// env is the setting of one workload run.
type env struct {
	serveBin string // the flexray-serve binary under test
	out      string // output directory: results.json, trace/
	dir      string // scratch directory of this run
	seed     int64
	seconds  int
	smoke    bool
	// history is the pristine seeded job store: set-up starts read it,
	// a workload's server starts on a fresh copy.
	history     string
	historyJobs int
	cal         *calibrator
}

// setupLaunches is how many server starts setup_s takes the median of.
func (e *env) setupLaunches() int {
	if e.smoke {
		return 1
	}
	return 5
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Extra marks a number that exists only on some workloads: it is
	// printed and kept in results.json, but the final JSON line — and
	// BENCHMARK.json — carry only the metrics every workload reports.
	Extra bool `json:"extra,omitempty"`
}

type metricSet []metric

func (m *metricSet) add(name string, v float64, unit string) {
	*m = append(*m, metric{Name: name, Value: finite(v), Unit: unit})
}

func (m *metricSet) addExtra(name string, v float64, unit string) {
	*m = append(*m, metric{Name: name, Value: finite(v), Unit: unit, Extra: true})
}

// finite maps NaN — the median of no samples — to 0. Only a phase in
// which every op failed has no samples, and its failures already make
// the run incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// runOutput is the outcome of one workload run.
type runOutput struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Trace     bool        `json:"trace"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Errors    []string    `json:"errors,omitempty"`
	Metrics   metricSet   `json:"metrics"`
	Layers    *layerTable `json:"layers,omitempty"`
}

func (o *runOutput) fail(err error) {
	o.Failed++
	// The first few errors say enough.
	if len(o.Errors) < 5 {
		o.Errors = append(o.Errors, err.Error())
	}
}

// runWorkload runs one workload: with trace off, the end-to-end
// metrics; with trace on, the per-layer ones.
func runWorkload(ctx context.Context, e *env, w *workload, trace bool) (*runOutput, error) {
	d, err := w.newGenerator(e)
	if err != nil {
		return nil, err
	}
	if err := writeHistory(e.history, e.seed, e.historyJobs); err != nil {
		return nil, fmt.Errorf("writing the job history: %w", err)
	}
	out := &runOutput{Workload: w.name, Seed: e.seed, Trace: trace}
	if !trace {
		setup, err := measureSetup(ctx, e)
		if err != nil {
			return nil, err
		}
		h, err := httpPhase(ctx, e, w, d, e.measure(1), out)
		if err != nil {
			return nil, err
		}
		out.Metrics.add("setup_s", setup, "s")
		h.endToEnd(w, &out.Metrics)
		out.Metrics.addExtra("failed_ratio", ratio(float64(out.Failed), float64(out.Attempted)), "ratio")
		return out, nil
	}
	h, err := httpPhase(ctx, e, w, d, e.measure(0.4), out)
	if err != nil {
		return nil, err
	}
	replay, err := timeStoreReplay(e)
	if err != nil {
		return nil, err
	}
	tr, err := tracePhase(ctx, e, w, d, e.measure(0.3), out)
	if err != nil {
		return nil, err
	}
	table := buildLayerTable(tr.spans)
	out.Layers = &table
	traceDir := filepath.Join(e.out, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(traceDir, w.name+".spans.jsonl"), tr.spans); err != nil {
		return nil, err
	}
	layerMetrics(w, h, tr, &table, replay, out)
	return out, nil
}

// measure is the share of the run's seconds a phase measures for.
func (e *env) measure(share float64) time.Duration {
	if e.smoke {
		return 0
	}
	return time.Duration(share * float64(e.seconds) * float64(time.Second))
}

// measureSetup starts the server on the job history several times and
// returns the median time from exec to the first 200 from /readyz, in
// seconds, each start divided by the host's slowdown around it. Every
// job of the history is finished, so a starting server only reads the
// store; killed before it can compact, it leaves the file as it was.
func measureSetup(ctx context.Context, e *env) (float64, error) {
	var ds []float64
	e.cal.begin()
	for k := 0; k < e.setupLaunches(); k++ {
		s, d, err := startServer(ctx, e.serveBin, e.dir, "setup", "-store", e.history)
		if err != nil {
			return 0, err
		}
		s.kill()
		ds = append(ds, d.Seconds()/e.cal.end())
	}
	return median(ds), nil
}

// httpResult is what the tracing-off phase measured.
type httpResult struct {
	ops int // successful measured ops
	// The times below are divided by the host's slowdown over their
	// window (see calibrator).
	lat []float64 // latencies of the successful ops, seconds
	// p50, rate and cpuPerOp are, per measurement window, the median
	// latency of its successful ops (seconds), successful ops per second
	// of op time, and server CPU milliseconds per successful op.
	p50, rate, cpuPerOp []float64
	slowdown            []float64 // per window
	rss                 int64     // summed VmHWM of the servers, bytes
	outs                []opOut
	c                   *client
	scr                 [2]scrape // coordinator before/after the measured phase
	peer                [2]scrape // lease worker before/after (campaign-distributed)
}

// httpPhase starts the server (and lease worker), runs the warm-up ops,
// then measures whole windows of ops for at least the given duration —
// and at least one window — and checks the outputs. Each window does
// the same work, so the medians over windows that endToEnd reports
// leave out a burst of load elsewhere on the host; the calibration
// samples between ops take out the host's drift within and across runs.
func httpPhase(ctx context.Context, e *env, w *workload, d generator, measure time.Duration, out *runOutput) (*httpResult, error) {
	store := filepath.Join(e.dir, "jobs.jsonl")
	if err := copyFile(store, e.history); err != nil {
		return nil, err
	}
	srv, _, err := startServer(ctx, e.serveBin, e.dir, "server", append([]string{"-store", store}, w.serverArgs...)...)
	if err != nil {
		return nil, err
	}
	servers := []*server{srv}
	stopAll := func() {
		for k := len(servers) - 1; k >= 0; k-- {
			servers[k].stop()
		}
	}
	defer stopAll()
	if w.peer {
		peer, _, err := startServer(ctx, e.serveBin, e.dir, "peer", "-peer", srv.url(""), "-peer-poll", "10ms")
		if err != nil {
			return nil, err
		}
		servers = append(servers, peer)
	}
	h := &httpResult{c: newClient(srv.url(""))}
	defer h.c.hc.CloseIdleConnections()
	runOp := func(i int) (opOut, time.Duration, error) {
		octx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		start := time.Now()
		o, err := d.op(octx, h.c, i)
		out.Attempted++
		if err != nil {
			out.fail(fmt.Errorf("%s op %d: %w", w.name, i, err))
		}
		return o, time.Since(start), err
	}
	warmup := w.warmup
	if e.smoke {
		warmup = 0
	}
	for i := 0; i < warmup && ctx.Err() == nil; i++ {
		runOp(i)
	}
	window := w.window
	if e.smoke {
		window = 1
	}
	// Flush the history and store copies written so far, so their
	// writeback does not land in the measured phase.
	syscall.Sync()
	if err := h.snapshot(ctx, servers, 0); err != nil {
		return nil, err
	}
	h.c.resetLatencies()
	done := map[int]opOut{} // the successful measured ops by index
	start := time.Now()
	e.cal.begin()
	for i := warmup; i == warmup || time.Since(start) < measure; {
		cpu0, err := serverCPU(servers)
		if err != nil {
			return nil, err
		}
		var busy time.Duration // the window's op time, without the calibration between ops
		var lats []float64
		for end := i + window; i < end; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, lat, err := runOp(i)
			busy += lat
			e.cal.tick()
			if err != nil {
				continue
			}
			lats = append(lats, lat.Seconds())
			h.outs = append(h.outs, o)
			done[i] = o
		}
		cpu1, err := serverCPU(servers)
		if err != nil {
			return nil, err
		}
		f := e.cal.end()
		h.ops += len(lats)
		if len(lats) > 0 {
			h.p50 = append(h.p50, median(lats)/f)
		}
		for _, l := range lats {
			h.lat = append(h.lat, l/f)
		}
		h.rate = append(h.rate, f*ratio(float64(len(lats)), busy.Seconds()))
		h.cpuPerOp = append(h.cpuPerOp, ratio(1e3*(cpu1-cpu0).Seconds(), float64(len(lats)))/f)
		h.slowdown = append(h.slowdown, f)
	}
	if err := h.snapshot(ctx, servers, 1); err != nil {
		return nil, err
	}
	for _, s := range servers {
		b, err := peakRSS(s.pid())
		if err != nil {
			return nil, err
		}
		h.rss += b
	}
	stopAll()
	servers = nil
	failed, err := d.verify(ctx, done)
	if err != nil {
		return nil, err
	}
	for k := 0; k < failed; k++ {
		out.fail(fmt.Errorf("%s: an op's outputs differ from the in-process reference", w.name))
	}
	return h, nil
}

// snapshot scrapes the coordinator (and the worker) into slot k.
func (h *httpResult) snapshot(ctx context.Context, servers []*server, k int) error {
	var err error
	if h.scr[k], err = scrapeMetrics(ctx, h.c.hc, servers[0].url("")); err != nil {
		return err
	}
	if len(servers) > 1 {
		h.peer[k], err = scrapeMetrics(ctx, h.c.hc, servers[1].url(""))
	}
	return err
}

func serverCPU(servers []*server) (time.Duration, error) {
	var total time.Duration
	for _, s := range servers {
		d, err := cpuTime(s.pid())
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// endToEnd adds the end-to-end metrics of the measured phase.
func (h *httpResult) endToEnd(w *workload, m *metricSet) {
	m.add("ops_per_s", median(h.rate), "op/s")
	m.add("latency_p50_ms", 1e3*median(h.p50), "ms")
	m.add("latency_tail_ms", 1e3*quantile(h.lat, w.tail/100), "ms")
	m.add("server_cpu_ms_per_op", median(h.cpuPerOp), "ms")
	m.addExtra("host_slowdown", median(h.slowdown), "ratio")
	m.add("server_rss_peak_mb", float64(h.rss)/(1<<20), "MiB")
}

// traceResult is what the in-process phase recorded.
type traceResult struct {
	spans   []Span
	st      *traceStats
	offWall []float64 // op wall times with spans off, seconds
	onWall  []float64 // the same ops with spans on
}

// tracePhase replays the ops in-process twice: with spans off for the
// given duration (and at least one op), then the same ops with spans
// on. The difference is the tracing overhead.
func tracePhase(ctx context.Context, e *env, w *workload, d generator, measure time.Duration, out *runOutput) (*traceResult, error) {
	tr := &traceResult{st: &traceStats{}}
	warmup := w.warmup
	if e.smoke {
		warmup = 0
	}
	pass := func(on bool, n int) ([]float64, []Span, error) {
		rec := newRecorder()
		r, err := d.newReplayer(ctx, e, rec, tr.st)
		if err != nil {
			return nil, nil, err
		}
		runOp := func(i int, deep bool) time.Duration {
			wall, err := r.op(ctx, i, deep)
			out.Attempted++
			if err != nil {
				out.fail(fmt.Errorf("%s replay op %d: %w", w.name, i, err))
			}
			return wall
		}
		// The HTTP phase's warm-up inputs warm this pass up too,
		// unrecorded, so both passes start equally warm.
		for i := 0; i < warmup && ctx.Err() == nil; i++ {
			runOp(i, false)
		}
		rec.on.Store(on)
		var walls []float64
		start := time.Now()
		for i := warmup; ctx.Err() == nil; i++ {
			if n > 0 && len(walls) == n || n == 0 && i > warmup && time.Since(start) >= measure {
				break
			}
			walls = append(walls, runOp(i, on && i-warmup < w.deep).Seconds())
		}
		return walls, rec.snapshot(), errors.Join(ctx.Err(), r.close())
	}
	var err error
	if tr.offWall, _, err = pass(false, 0); err != nil {
		return nil, err
	}
	if tr.onWall, tr.spans, err = pass(true, len(tr.offWall)); err != nil {
		return nil, err
	}
	return tr, nil
}

// layerMetrics derives the per-layer metrics: the ones BENCHMARK.json
// lists for every workload, then the workload-specific extras.
func layerMetrics(w *workload, h *httpResult, tr *traceResult, t *layerTable, replay time.Duration, out *runOutput) {
	m := &out.Metrics
	b, a := h.scr[0], h.scr[1]
	ops := float64(h.ops)

	var srvSum, srvCount, cliSum float64
	var cliCount int
	for _, route := range w.routes {
		s, c := histDelta(b, a, "flexray_http_request_duration_seconds", "route", route)
		srvSum += s
		srvCount += c
		for _, l := range h.c.lat[route] {
			cliSum += l
			cliCount++
		}
	}
	serverMs := 1e3 * ratio(srvSum, srvCount)
	m.add("serve.server_ms", serverMs, "ms")
	m.add("serve.transport_ms", 1e3*ratio(cliSum, float64(cliCount))-serverMs, "ms")
	m.add("serve.shed_total", delta(b, a, "flexray_http_requests_total", "code", "503"), "count")
	m.add("failed_ratio", ratio(float64(out.Failed), float64(out.Attempted)), "ratio")

	for _, layer := range []string{"model", "flexray", "lint", "sim", "sched"} {
		m.add(layer+".self_pct", t.layerSelfPct(layer), "%")
	}
	st := tr.st
	m.add("sched.build_table_us", t.row("sched.build_table").MeanUs, "us")
	m.add("sched.build_tables", ratio(float64(st.tables), float64(st.replayOps)), "count")
	m.add("analysis.reset_us", t.row("analysis.reset").MeanUs, "us")
	m.add("analysis.run_us", t.row("analysis.run").MeanUs, "us")
	m.add("analysis.unconverged", float64(st.unconverged), "count")

	session := t.row("core.session_eval").Busy
	split := t.row("sched.build_table").Busy + t.row("analysis.reset").Busy + t.row("analysis.run").Busy
	m.add("core.self_pct", t.layerSelfPct("core"), "%")
	m.add("core.layer_residual_pct", 100*ratio(session-split, session), "%")

	evals := delta(b, a, "flexray_engine_evaluations_total")
	hits := delta(b, a, "flexray_engine_cache_hits_total")
	misses := delta(b, a, "flexray_engine_cache_misses_total")
	m.add("campaign.self_pct", t.layerSelfPct("campaign"), "%")
	m.add("campaign.evaluations", ratio(evals, ops), "count")
	m.add("campaign.cache_hits", ratio(hits, ops), "count")
	m.add("campaign.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	deepEngine := float64(st.deepEngineNs) / 1e6
	m.add("campaign.engine_overhead_pct", 100*ratio(deepEngine-session, deepEngine), "%")

	_, appends := histDelta(b, a, "flexray_store_append_seconds")
	m.add("jobs.self_pct", t.layerSelfPct("jobs"), "%")
	m.add("jobs.store.replay_ms", 1e3*replay.Seconds(), "ms")
	m.add("jobs.store.appends", ratio(appends, ops), "count")
	m.add("jobs.store.bytes_per_op", ratio(delta(b, a, "flexray_store_size_bytes"), ops), "bytes")
	m.add("jobs.result_bytes", ratio(delta(b, a, "flexray_jobs_result_bytes"), ops), "bytes")
	m.add("jobs.lease.granted", ratio(delta(b, a, "flexray_lease_granted_total"), ops), "count")
	m.add("jobs.lease.expired", delta(b, a, "flexray_lease_expired_total"), "count")

	m.add("bench.residual_pct", 100*ratio(t.Residual, t.OpWallMs), "%")
	off, on := median(tr.offWall), median(tr.onWall)
	m.add("bench.trace_overhead_pct", 100*ratio(on-off, off), "%")

	extras(w, h, tr, t, m)
}

// extras adds the per-layer numbers that exist only on some workloads;
// they are printed and written to results.json but are not part of
// BENCHMARK.json, which lists the metrics every workload reports.
func extras(w *workload, h *httpResult, tr *traceResult, t *layerTable, m *metricSet) {
	histMs := func(name, family string, s [2]scrape) {
		sum, n := histDelta(s[0], s[1], family)
		if n > 0 {
			m.addExtra(name, 1e3*sum/n, "ms")
		}
	}
	histMs("lint.report_ms", "flexray_lint_report_seconds", h.scr)
	histMs("jobs.queue_wait_ms", "flexray_jobs_start_delay_seconds", h.scr)
	histMs("jobs.run_ms", "flexray_jobs_run_seconds", h.scr)
	histMs("jobs.store.append_ms", "flexray_store_append_seconds", h.scr)
	if w.peer {
		histMs("jobs.worker.shard_ms", "flexray_worker_shard_seconds", h.peer)
	}
	var notify []float64
	for _, o := range h.outs {
		if o.notify > 0 {
			notify = append(notify, 1e3*o.notify.Seconds())
		}
	}
	if len(notify) > 0 {
		m.addExtra("jobs.notify_ms", mean(notify), "ms")
	}

	// Per-algorithm time and evaluations, from the runs the responses
	// reported.
	type acc struct{ ms, evals, n float64 }
	algs := map[string]*acc{}
	for _, o := range h.outs {
		for _, r := range o.runs {
			x := algs[r.Algorithm]
			if x == nil {
				x = &acc{}
				algs[r.Algorithm] = x
			}
			x.ms += float64(r.ElapsedUs) / 1e3
			x.evals += float64(r.Evaluations)
			x.n++
		}
	}
	for _, alg := range campaign.Algorithms {
		if x := algs[alg]; x != nil {
			m.addExtra("core."+algKey(alg)+"_ms", x.ms/x.n, "ms")
			m.addExtra("core."+algKey(alg)+"_evals", x.evals/x.n, "count")
		}
	}

	for _, span := range []string{"core.session_eval", "flexray.read_json", "flexray.write_json",
		"lint.run", "model.read_json", "sched.build", "sim.run"} {
		if r := t.row(span); r.Calls > 0 {
			m.addExtra(span+"_us", r.MeanUs, "us")
		}
	}
	if tr.st.hookCands > 0 {
		m.addExtra("campaign.engine_eval_us", 1e3*t.row("campaign.engine_eval").Busy/float64(tr.st.hookCands), "us")
	}
	for _, call := range []string{"claim", "complete"} {
		if r := t.row("jobs.lease." + call); r.Calls > 0 {
			m.addExtra("jobs.lease."+call+"_ms", r.MeanUs/1e3, "ms")
		}
	}
}
