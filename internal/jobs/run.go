package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// run dispatches one job by kind. It recompiles the spec — replayed
// jobs were never compiled in this process — and returns the result or
// the error that decides the terminal state.
func (m *Manager) run(ctx context.Context, j *job) (*Result, error) {
	c, err := j.spec.compile()
	if err != nil {
		return nil, err
	}
	switch j.spec.Kind {
	case KindOptimize:
		return m.runOptimize(ctx, j, c)
	case KindCampaign:
		return m.runCampaign(ctx, j, c)
	case KindSweep:
		return m.runSweep(ctx, j, c)
	}
	return nil, fmt.Errorf("jobs: unknown job kind %q", j.spec.Kind)
}

// evalWorkers resolves a job's evaluation parallelism.
func (m *Manager) evalWorkers(j *job) int {
	if j.spec.Workers > 0 {
		return j.spec.Workers
	}
	return m.opts.EvalWorkers
}

func (m *Manager) runOptimize(ctx context.Context, j *job, c *compiled) (*Result, error) {
	m.updateProgress(j, func(p *Progress) { p.Total = 1 })
	res, err := m.Optimize(ctx, c.sys, c.opts, m.evalWorkers(j), c.algorithms...)
	if err != nil {
		return nil, err
	}
	m.updateProgress(j, func(p *Progress) {
		p.Completed = 1
		p.Best = res.Algorithm
		p.BestCost = res.Cost
		if res.Schedulable {
			p.Schedulable = 1
		}
		p.Engine = res.Engine
	})
	return &Result{Optimize: res}, nil
}

func (m *Manager) runSweep(ctx context.Context, j *job, c *compiled) (*Result, error) {
	total := len(c.cfgs)
	m.updateProgress(j, func(p *Progress) { p.Total = total })
	// Points are independent, so the sweep shards across the job's
	// evaluation workers; each goroutine owns its own evaluation
	// session (sessions are not safe for concurrent use), and results
	// land positionally, so the output is identical for any worker
	// count.
	workers := m.evalWorkers(j)
	if workers > total {
		workers = total
	}
	points := make([]SweepPoint, total)
	idxc := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			session := core.NewSession(c.sys, c.opts.Sched)
			for i := range idxc {
				pt := m.sweepPoint(session, c, i, j.spec.Repetitions)
				points[i] = pt
				m.updateProgress(j, func(p *Progress) {
					p.Completed++
					p.Engine.Evaluations += pt.evaluations()
					if pt.Err != "" {
						return
					}
					if pt.Schedulable {
						p.Schedulable++
					}
					if p.Best == "" || pt.Cost < p.BestCost {
						p.Best = "config " + strconv.Itoa(i)
						p.BestCost = pt.Cost
					}
				})
			}
		}()
	}
	for i := 0; i < total; i++ {
		select {
		case idxc <- i:
		case <-ctx.Done():
			close(idxc)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(idxc)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The live Best above follows completion order; settle it
	// deterministically (lowest cost, lowest index on ties) now that
	// every point is in.
	m.updateProgress(j, func(p *Progress) {
		p.Best, p.BestCost = "", 0
		for i, pt := range points {
			if pt.Err != "" {
				continue
			}
			if p.Best == "" || pt.Cost < p.BestCost {
				p.Best = "config " + strconv.Itoa(i)
				p.BestCost = pt.Cost
			}
		}
	})
	return &Result{Sweep: points}, nil
}

// sweepPoint evaluates configuration idx of a sweep through the same
// methods as POST /v1/analyze and /v1/simulate.
func (m *Manager) sweepPoint(session *core.Session, c *compiled, idx, reps int) SweepPoint {
	pt := SweepPoint{Index: idx}
	cfg := c.cfgs[idx]
	var err error
	if pt.AnalyzeResult, err = m.analyze(session, c.sys, cfg); err != nil {
		pt.Err = err.Error()
		return pt
	}
	if c.simulate {
		if pt.SimulateResult, err = m.Simulate(c.sys, cfg, c.opts, reps); err != nil {
			pt.Err = err.Error()
		}
	}
	return pt
}

// evaluations counts the computations a sweep point ran to completion,
// as the manager's engine counters did.
func (pt *SweepPoint) evaluations() int64 {
	var n int64
	if pt.AnalyzeResult != nil {
		n++
	}
	if pt.SimulateResult != nil {
		n++
	}
	return n
}

// Optimize races the optimiser portfolio on sys with the given
// evaluation workers, on the caller's goroutine: POST /v1/optimize and
// the optimize job kind. A cancelled ctx surfaces as its error.
func (m *Manager) Optimize(ctx context.Context, sys *model.System, opts core.Options, workers int, algorithms ...string) (*OptimizeResult, error) {
	pf, err := campaign.Portfolio(ctx, sys, opts, campaign.EngineOptions{Workers: workers}, algorithms...)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := pf.Best.Config.WriteJSON(&buf, sys); err != nil {
		return nil, err
	}
	m.engine.Add(pf.Engine)
	return &OptimizeResult{
		Algorithm:   pf.Best.Algorithm,
		Cost:        pf.Best.Cost,
		Schedulable: pf.Best.Schedulable,
		Evaluations: pf.Best.Evaluations,
		ElapsedUs:   pf.Best.Elapsed.Microseconds(),
		Config:      json.RawMessage(buf.Bytes()),
		Runs:        withoutResults(pf.Runs),
		Engine:      pf.Engine,
	}, nil
}

// withoutResults returns a copy of runs with every Result cleared. A
// retained job keeps only the telemetry its JSON shows; the optimiser
// outcome behind each run (the configuration and the analysis with its
// response maps) would otherwise stay alive as long as the job does.
func withoutResults(runs []campaign.AlgoRun) []campaign.AlgoRun {
	out := slices.Clone(runs)
	for i := range out {
		out[i].Result = nil
	}
	return out
}

// Analyze builds cfg's schedule table and runs the holistic analysis
// over it, on the caller's goroutine: POST /v1/analyze.
func (m *Manager) Analyze(sys *model.System, cfg *flexray.Config, opts core.Options) (*AnalyzeResult, error) {
	return m.analyze(core.NewSession(sys, opts.Sched), sys, cfg)
}

// analyze is Analyze on a session for sys; a sweep keeps one session
// per goroutine across its points.
func (m *Manager) analyze(session *core.Session, sys *model.System, cfg *flexray.Config) (*AnalyzeResult, error) {
	res, err := session.Analyze(cfg)
	if err != nil {
		return nil, fmt.Errorf("schedule construction failed: %w", err)
	}
	m.engine.Add(campaign.EngineStats{Evaluations: 1})
	out := &AnalyzeResult{
		Schedulable: res.Schedulable,
		Cost:        res.Cost,
		Converged:   res.Converged,
		CycleUs:     cfg.Cycle().Us(),
		ResponseUs:  map[string]float64{},
	}
	for id, rt := range res.R {
		out.ResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	for _, id := range res.Violations {
		out.Violations = append(out.Violations, sys.App.Act(id).Name)
	}
	return out, nil
}

// Simulate builds cfg's schedule table and runs the discrete-event
// simulator over it (reps > 0 overrides the default repetitions), on
// the caller's goroutine: POST /v1/simulate.
func (m *Manager) Simulate(sys *model.System, cfg *flexray.Config, opts core.Options, reps int) (*SimulateResult, error) {
	table, err := sched.BuildTable(sys, cfg, opts.Sched)
	if err != nil {
		return nil, fmt.Errorf("schedule construction failed: %w", err)
	}
	simOpts := sim.DefaultOptions()
	if reps > 0 {
		simOpts.Repetitions = reps
	}
	simulator, err := sim.New(sys, cfg, table, simOpts)
	if err != nil {
		return nil, err
	}
	res, err := simulator.Run()
	if err != nil {
		return nil, err
	}
	m.engine.Add(campaign.EngineStats{Evaluations: 1})
	out := &SimulateResult{
		MaxResponseUs:  map[string]float64{},
		Completions:    map[string]int{},
		DeadlineMisses: res.DeadlineMisses,
		Unfinished:     res.Unfinished,
	}
	for id, rt := range res.MaxResponse {
		out.MaxResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	for id, n := range res.Completions {
		out.Completions[sys.App.Act(id).Name] = n
	}
	return out, nil
}
