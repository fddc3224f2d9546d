package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/experiments"
	"repro/internal/flexray"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/synth"
)

// workload is one traffic mix: a closed loop of one client against a
// fresh flexray-serve started on the seeded job history.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports, fixed per
	// workload so runs stay comparable.
	tail float64
	// warmup ops run before the measured phase and count in no metric.
	warmup int
	// window is the ops of one measurement window: a whole cycle of the
	// workload's inputs (or several), so every window does the same work.
	window int
	// deep is how many ops of a traced pass also replay their
	// candidates layer by layer.
	deep int
	// routes are the server route labels of an op's timed requests.
	routes []string
	// peer starts a second flexray-serve as a lease worker.
	peer bool
	// serverArgs are extra flags of the (coordinator) server.
	serverArgs   []string
	newGenerator func(e *env) (generator, error)
}

var jobRoutes = []string{"/v1/jobs", "/v1/jobs/{id}/result"}

var workloads = []*workload{
	{name: "optimize-cruise", tail: 80, warmup: 2, window: 4, deep: 2, routes: []string{"/v1/optimize"}, newGenerator: newOptimizeCruise},
	{name: "campaign-local", tail: 75, warmup: 1, window: campaignCycle, deep: 1, routes: jobRoutes,
		newGenerator: func(e *env) (generator, error) {
			return newCampaignJobs(e, false), nil
		}},
	{name: "campaign-distributed", tail: 75, warmup: 1, window: campaignCycle, deep: 1, routes: jobRoutes, peer: true,
		serverArgs: []string{"-lease-systems", "4"}, newGenerator: func(e *env) (generator, error) {
			return newCampaignJobs(e, true), nil
		}},
	// One warm-up cycle and one traced cycle over the 30 systems; a
	// window is ten cycles.
	{name: "check-mix", tail: 99, warmup: 3 * checkMixSystems, window: 30 * checkMixSystems, deep: 3 * checkMixSystems,
		routes: []string{"/v1/analyze", "/v1/simulate", "/v1/lint"}, newGenerator: newCheckMix},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// generator makes a workload's inputs from the seed, sends its ops and
// checks their outputs.
type generator interface {
	// op sends op i and checks the outputs; an error fails the op.
	op(ctx context.Context, c *client, i int) (opOut, error)
	// verify runs the checks too costly to run inside an op on the
	// outputs of the successful measured ops, by op index, after the
	// measured phase, and returns how many ops failed them.
	verify(ctx context.Context, outs map[int]opOut) (int, error)
	// newReplayer prepares an in-process replay of the ops that records
	// spans into rec.
	newReplayer(ctx context.Context, e *env, rec *recorder, st *traceStats) (replayer, error)
}

// opOut is what an op reported beyond pass/fail.
type opOut struct {
	// runs are the optimiser runs of the op (portfolio runs, or every
	// run of every campaign record).
	runs []campaign.AlgoRun
	// notify is the client latency of a job beyond its own lifetime
	// (finished_at - submitted_at): event delivery plus result fetch.
	notify time.Duration
	// records are a campaign job's records, kept for verify.
	records []campaign.Record
}

// replayer runs ops in-process through the functions the HTTP handlers
// call.
type replayer interface {
	// op runs op i and returns its wall time; deep also replays the
	// op's candidate configurations layer by layer, outside that time.
	op(ctx context.Context, i int, deep bool) (time.Duration, error)
	close() error
}

// algKey is the metric spelling of an algorithm: "OBC-CF" → "obccf".
func algKey(alg string) string { return strings.ToLower(strings.ReplaceAll(alg, "-", "")) }

// optimizeCruise is POST /v1/optimize on the paper's cruise-controller
// case study with the full portfolio and default options.
type optimizeCruise struct {
	sysJSON []byte
	body    []byte
}

// cruisePins are the portfolio's costs and evaluation counts on the
// cruise system; the optimisers are deterministic, so any change is a
// correctness failure.
var cruisePins = map[string]struct {
	cost  float64
	evals int
}{
	"BBC":    {3884, 64},
	"OBC-CF": {-1538672, 196},
	"OBC-EE": {-1541101, 576},
	"SA":     {21567, 2001},
}

func newOptimizeCruise(*env) (generator, error) {
	sys, err := cruise.System()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		return nil, err
	}
	body, err := json.Marshal(map[string]json.RawMessage{"system": buf.Bytes()})
	if err != nil {
		return nil, err
	}
	return &optimizeCruise{sysJSON: buf.Bytes(), body: body}, nil
}

func checkCruise(best string, bestCost float64, runs []campaign.AlgoRun) error {
	if len(runs) != len(campaign.Algorithms) {
		return fmt.Errorf("%d optimiser runs, want %d", len(runs), len(campaign.Algorithms))
	}
	for k, r := range runs {
		pin := cruisePins[r.Algorithm]
		if r.Algorithm != campaign.Algorithms[k] || r.Err != "" || r.Cost != pin.cost || r.Evaluations != pin.evals {
			return fmt.Errorf("run %d: %s cost %v with %d evaluations (error %q), want %v with %d",
				k, r.Algorithm, r.Cost, r.Evaluations, r.Err, pin.cost, pin.evals)
		}
	}
	if best != "OBC-EE" || bestCost != cruisePins["OBC-EE"].cost {
		return fmt.Errorf("best %s at %v, want OBC-EE", best, bestCost)
	}
	return nil
}

func (w *optimizeCruise) op(ctx context.Context, c *client, _ int) (opOut, error) {
	data, err := c.call(ctx, http.MethodPost, "/v1/optimize", "/v1/optimize", w.body)
	if err != nil {
		return opOut{}, err
	}
	var resp struct {
		Best struct {
			Algorithm string  `json:"algorithm"`
			Cost      float64 `json:"cost"`
		} `json:"best"`
		Runs []campaign.AlgoRun `json:"runs"`
	}
	if err := decodeJSON("optimize response", data, &resp); err != nil {
		return opOut{}, err
	}
	return opOut{runs: resp.Runs}, checkCruise(resp.Best.Algorithm, resp.Best.Cost, resp.Runs)
}

func (w *optimizeCruise) verify(context.Context, map[int]opOut) (int, error) { return 0, nil }

// campaignJobs submits campaign jobs on the quick Fig. 9 population
// shape — node counts 2-5, QuickFig9Params tuning, SA warm-started from
// OBC — with one system per node count, and waits for each: submit,
// "done" event, result. One system per node count (the figure uses
// three) keeps a job near 0.45 s, so a 20 s run completes about 45 jobs
// and p75 keeps ten samples beyond it.
type campaignJobs struct {
	seed        int64
	distributed bool
	nodeCounts  []int
	deadline    float64
	tuning      *jobs.Tuning
	opts        core.Options
}

func newCampaignJobs(e *env, distributed bool) *campaignJobs {
	p := experiments.QuickFig9Params()
	w := &campaignJobs{
		seed:        e.seed,
		distributed: distributed,
		nodeCounts:  p.NodeCounts,
		deadline:    p.DeadlineFactor,
		tuning:      jobs.TuningFromOptions(p.Opts),
	}
	if e.smoke {
		w.nodeCounts = []int{2, 3}
	}
	w.opts = w.tuning.Apply(core.DefaultOptions())
	return w
}

// campaignCycle is the number of distinct populations the job stream
// cycles through, and the jobs of one measurement window. Job latency
// clusters by population; with an odd count, p50 and p75 fall inside a
// cluster rather than on the edge between two, where they would jump.
const campaignCycle = 5

// popSeed is the population seed of job i. The stream cycles through
// the populations 1 to campaignCycle and the seed picks where it
// starts, so every window does the same work whatever the seed; a
// distinct set of systems per seed moves ops_per_s by ±10 % between
// seeds. PopulationSpecs offsets each node count's system seed by 1000,
// so the systems of one cycle are all distinct.
func (w *campaignJobs) popSeed(i int) int64 { return 1 + mod(w.seed+int64(i), campaignCycle) }

// mod is the non-negative remainder of a by n.
func mod(a int64, n int) int64 { return (a%int64(n) + int64(n)) % int64(n) }

func (w *campaignJobs) specs(i int) []synth.Params {
	return campaign.PopulationSpecs(w.nodeCounts, 1, w.popSeed(i), w.deadline)
}

func (w *campaignJobs) spec(i int) jobs.Spec {
	return jobs.Spec{
		Kind:          jobs.KindCampaign,
		SAWarmFromOBC: true,
		Tuning:        w.tuning,
		Distribute:    w.distributed,
		Population: &jobs.Population{
			NodeCounts: w.nodeCounts, AppsPerCount: 1,
			Seed: w.popSeed(i), DeadlineFactor: w.deadline,
		},
	}
}

func (w *campaignJobs) op(ctx context.Context, c *client, i int) (opOut, error) {
	body, err := json.Marshal(w.spec(i))
	if err != nil {
		return opOut{}, err
	}
	start := time.Now()
	data, err := c.call(ctx, http.MethodPost, "/v1/jobs", "/v1/jobs", body)
	if err != nil {
		return opOut{}, err
	}
	var job jobs.Job
	if err := decodeJSON("submitted job", data, &job); err != nil {
		return opOut{}, err
	}
	if data, err = c.awaitDone(ctx, job.ID); err != nil {
		return opOut{}, err
	}
	var final jobs.Job
	if err := decodeJSON("done event", data, &final); err != nil {
		return opOut{}, err
	}
	if final.Status != jobs.StatusDone {
		return opOut{}, fmt.Errorf("job %s %s: %s", job.ID, final.Status, final.Error)
	}
	data, err = c.call(ctx, http.MethodGet, "/v1/jobs/{id}/result", "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return opOut{}, err
	}
	latency := time.Since(start)
	var res jobs.Result
	if err := decodeJSON("job result", data, &res); err != nil {
		return opOut{}, err
	}
	out := opOut{
		notify:  latency - final.FinishedAt.Sub(final.SubmittedAt),
		records: res.Records,
	}
	for _, r := range res.Records {
		out.runs = append(out.runs, r.Runs...)
	}
	return out, w.checkRecords(i, res.Records)
}

// checkRecords checks a job's records against its population: one per
// system, in order, each with the portfolio in canonical order. An
// optimiser may legitimately fail on a system (no room for the DYN
// segment); whether the outcome is right is verify's question.
func (w *campaignJobs) checkRecords(i int, recs []campaign.Record) error {
	specs := w.specs(i)
	if len(recs) != len(specs) {
		return fmt.Errorf("%d records, want %d", len(recs), len(specs))
	}
	for k, r := range recs {
		if r.Index != k || r.Nodes != specs[k].Nodes || r.Seed != specs[k].Seed {
			return fmt.Errorf("record %d: index %d, %d nodes, seed %d", k, r.Index, r.Nodes, r.Seed)
		}
		if len(r.Runs) != len(campaign.Algorithms) {
			return fmt.Errorf("record %d: %d optimiser runs, want %d", k, len(r.Runs), len(campaign.Algorithms))
		}
		for j, run := range r.Runs {
			if run.Algorithm != campaign.Algorithms[j] {
				return fmt.Errorf("record %d: run %d is %s", k, j, run.Algorithm)
			}
		}
	}
	return nil
}

// verify recomputes the records of each population the jobs ran
// in-process through campaign.Run, once, and compares every job's
// records with them. Campaign records are deterministic, and a
// distributed job must produce exactly what a local one does, so both
// workloads check against the same reference.
func (w *campaignJobs) verify(ctx context.Context, outs map[int]opOut) (int, error) {
	failed := 0
	wants := map[int64][]campaign.Record{}
	for i, out := range outs {
		want, ok := wants[w.popSeed(i)]
		if !ok {
			err := campaign.Run(ctx, w.specs(i), w.opts, campaign.Options{SAWarmFromOBC: true},
				func(r campaign.Record) error { want = append(want, r); return nil })
			if err != nil {
				return failed, err
			}
			wants[w.popSeed(i)] = want
		}
		same, err := sameRecords(out.records, want)
		if err != nil {
			return failed, err
		}
		if !same {
			failed++
		}
	}
	return failed, nil
}

// sameRecords compares records as JSON, ignoring the wall-clock
// elapsed_us of each run.
func sameRecords(a, b []campaign.Record) (bool, error) {
	norm := func(recs []campaign.Record) ([]byte, error) {
		out := make([]campaign.Record, len(recs))
		for k, r := range recs {
			r.Runs = append([]campaign.AlgoRun(nil), r.Runs...)
			for j := range r.Runs {
				r.Runs[j].ElapsedUs = 0
			}
			out[k] = r
		}
		return json.Marshal(out)
	}
	ja, err := norm(a)
	if err != nil {
		return false, err
	}
	jb, err := norm(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// checkMix cycles POST /v1/analyze, /v1/simulate and /v1/lint over
// seeded synthetic systems, each under its BBC configuration.
type checkMix struct {
	systems []*checkSystem
	first   int // the system of op 0
}

type checkSystem struct {
	sysJSON, cfgJSON []byte
	body             []byte // {"system", "config"}: the body of all three requests
	analysis         analysisOut
	sim              simOut
	lint             []byte // the expected report, compact JSON
}

// analysisOut and simOut are the fields of the /v1/analyze and
// /v1/simulate responses the checks compare.
type analysisOut struct {
	Schedulable bool               `json:"schedulable"`
	Cost        float64            `json:"cost"`
	Converged   bool               `json:"converged"`
	ResponseUs  map[string]float64 `json:"response_us"`
}

type simOut struct {
	MaxResponseUs map[string]float64 `json:"max_response_us"`
	Unfinished    int                `json:"unfinished"`
}

// checkMixSystems is the number of distinct systems the mix cycles
// over.
const checkMixSystems = 30

func newCheckMix(e *env) (generator, error) {
	n := checkMixSystems
	if e.smoke {
		n = 3
	}
	// As with the campaign jobs, the systems are fixed — synth seeds 1 to
	// n — and the seed picks where the cycle starts, so every window does
	// the same work.
	w := &checkMix{first: int(mod(e.seed, n))}
	for k := 0; k < n; k++ {
		cs, err := newCheckSystem(int64(k + 1))
		if err != nil {
			return nil, fmt.Errorf("check-mix system %d: %w", k, err)
		}
		w.systems = append(w.systems, cs)
	}
	return w, nil
}

// newCheckSystem generates one system of 2 to 6 nodes, configures it
// with BBC and computes the expected answers in-process from the JSON
// the server will parse.
func newCheckSystem(seed int64) (*checkSystem, error) {
	p := synth.DefaultParams(2+int((seed%5+5)%5), seed)
	p.DeadlineFactor = 2
	gen, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	o := core.DefaultOptions()
	o.DYNGridCap = 8
	bbc, err := core.BBC(gen, o)
	if err != nil {
		return nil, err
	}
	cs := &checkSystem{}
	var buf bytes.Buffer
	if err := gen.WriteJSON(&buf); err != nil {
		return nil, err
	}
	cs.sysJSON = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := bbc.Config.WriteJSON(&buf, gen); err != nil {
		return nil, err
	}
	cs.cfgJSON = bytes.Clone(buf.Bytes())
	if cs.body, err = json.Marshal(map[string]json.RawMessage{"system": cs.sysJSON, "config": cs.cfgJSON}); err != nil {
		return nil, err
	}
	sys, cfg, err := cs.parse(true)
	if err != nil {
		return nil, err
	}
	table, res, err := sched.Build(sys, cfg, sched.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cs.analysis = analysisOf(sys, res)
	sr, err := simulate(sys, cfg, table)
	if err != nil {
		return nil, err
	}
	cs.sim = simOf(sys, sr)
	if err := cs.sim.sound(cs.analysis); err != nil {
		return nil, err
	}
	rep, err := lint.Run(sys, cfg, lint.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if cs.lint, err = json.Marshal(rep); err != nil {
		return nil, err
	}
	return cs, nil
}

// parse reads the system and configuration as the handlers do; only
// /v1/lint skips the configuration's validation.
func (cs *checkSystem) parse(validate bool) (*model.System, *flexray.Config, error) {
	sys, err := model.ReadJSON(bytes.NewReader(cs.sysJSON))
	if err != nil {
		return nil, nil, err
	}
	cfg, err := flexray.ReadJSON(bytes.NewReader(cs.cfgJSON), sys)
	if err == nil && validate {
		err = cfg.Validate(flexray.DefaultParams(), sys)
	}
	return sys, cfg, err
}

// simulate runs the simulator as /v1/simulate does.
func simulate(sys *model.System, cfg *flexray.Config, table *schedule.Table) (*sim.Result, error) {
	s, err := sim.New(sys, cfg, table, sim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// analysisOf projects an analysis as /v1/analyze reports it.
func analysisOf(sys *model.System, res *analysis.Result) analysisOut {
	out := analysisOut{Schedulable: res.Schedulable, Cost: res.Cost, Converged: res.Converged,
		ResponseUs: map[string]float64{}}
	for id, rt := range res.R {
		out.ResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	return out
}

// simOf projects a simulation as /v1/simulate reports it.
func simOf(sys *model.System, res *sim.Result) simOut {
	out := simOut{MaxResponseUs: map[string]float64{}, Unfinished: res.Unfinished}
	for id, rt := range res.MaxResponse {
		out.MaxResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	return out
}

// sound checks the paper's soundness claim on one system: no simulated
// response exceeds its analysed worst case.
func (s simOut) sound(a analysisOut) error {
	for name, got := range s.MaxResponseUs {
		if bound, ok := a.ResponseUs[name]; ok && got > bound {
			return fmt.Errorf("%s: simulated response %vus above the analysed bound %vus", name, got, bound)
		}
	}
	return nil
}

// opKinds are the three requests of the mix, in cycle order.
var opKinds = [3]string{"analyze", "simulate", "lint"}

// pick maps op i to its system and request kind: each system gets all
// three requests in turn, then the next system.
func (w *checkMix) pick(i int) (*checkSystem, string) {
	return w.systems[(w.first+i/3)%len(w.systems)], opKinds[i%3]
}

func (w *checkMix) op(ctx context.Context, c *client, i int) (opOut, error) {
	cs, kind := w.pick(i)
	route := "/v1/" + kind
	data, err := c.call(ctx, http.MethodPost, route, route, cs.body)
	if err != nil {
		return opOut{}, err
	}
	switch kind {
	case "analyze":
		var got analysisOut
		if err := decodeJSON("analysis", data, &got); err != nil {
			return opOut{}, err
		}
		return opOut{}, cs.checkAnalysis(got)
	case "simulate":
		var got simOut
		if err := decodeJSON("simulation", data, &got); err != nil {
			return opOut{}, err
		}
		return opOut{}, cs.checkSim(got)
	default:
		var got lint.Report
		if err := decodeJSON("lint report", data, &got); err != nil {
			return opOut{}, err
		}
		return opOut{}, cs.checkLint(&got)
	}
}

func (cs *checkSystem) checkAnalysis(got analysisOut) error {
	want := cs.analysis
	if got.Schedulable != want.Schedulable || got.Cost != want.Cost || got.Converged != want.Converged ||
		!maps.Equal(got.ResponseUs, want.ResponseUs) {
		return fmt.Errorf("analysis differs: cost %v, want %v", got.Cost, want.Cost)
	}
	return nil
}

func (cs *checkSystem) checkSim(got simOut) error {
	if err := got.sound(cs.analysis); err != nil {
		return err
	}
	if got.Unfinished != cs.sim.Unfinished || !maps.Equal(got.MaxResponseUs, cs.sim.MaxResponseUs) {
		return errors.New("simulation differs from the in-process run")
	}
	return nil
}

// checkLint checks a report covers every rule of the catalogue once
// and equals the in-process report.
func (cs *checkSystem) checkLint(got *lint.Report) error {
	rules := len(lint.Rules())
	seen := map[string]bool{}
	for _, f := range got.Findings {
		seen[f.Rule] = true
	}
	if got.Summary.Rules != rules || len(seen) != rules {
		return fmt.Errorf("lint report covers %d rules (%d with findings), want %d", got.Summary.Rules, len(seen), rules)
	}
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, cs.lint) {
		return errors.New("lint report differs from the in-process report")
	}
	return nil
}

func (w *checkMix) verify(context.Context, map[int]opOut) (int, error) { return 0, nil }
