package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
		if j.spec.Distribute {
			return m.runDistributed(ctx, j, c)
		}
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
	pf, err := campaign.Portfolio(ctx, c.sys, c.opts,
		campaign.EngineOptions{Workers: m.evalWorkers(j)}, c.algorithms...)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := pf.Best.Config.WriteJSON(&buf, c.sys); err != nil {
		return nil, err
	}
	m.engine.Add(pf.Engine)
	m.updateProgress(j, func(p *Progress) {
		p.Completed = 1
		p.Best = pf.Best.Algorithm
		p.BestCost = pf.Best.Cost
		if pf.Best.Schedulable {
			p.Schedulable = 1
		}
		p.Engine = pf.Engine
	})
	return &Result{Optimize: &OptimizeResult{
		Algorithm:   pf.Best.Algorithm,
		Cost:        pf.Best.Cost,
		Schedulable: pf.Best.Schedulable,
		Evaluations: pf.Best.Evaluations,
		ElapsedUs:   pf.Best.Elapsed.Microseconds(),
		Config:      json.RawMessage(buf.Bytes()),
		Runs:        pf.Runs,
		Engine:      pf.Engine,
	}}, nil
}

func (m *Manager) runCampaign(ctx context.Context, j *job, c *compiled) (*Result, error) {
	total := len(c.specs) + len(c.systems)
	m.updateProgress(j, func(p *Progress) { p.Total = total })
	copts := campaign.Options{
		Workers:       m.evalWorkers(j),
		Algorithms:    c.algorithms,
		SAWarmFromOBC: j.spec.SAWarmFromOBC,
	}
	records := make([]campaign.Record, 0, total)
	emit := func(rec campaign.Record) error {
		records = append(records, rec)
		m.engine.Add(rec.Engine)
		m.updateProgress(j, func(p *Progress) {
			p.Completed++
			if rec.Schedulable {
				p.Schedulable++
			}
			if rec.Best != "" && (p.Best == "" || rec.BestCost < p.BestCost) {
				p.Best = rec.Name
				p.BestCost = rec.BestCost
			}
			p.Engine.Add(rec.Engine)
		})
		return nil
	}
	var err error
	if len(c.systems) > 0 {
		err = campaign.RunSystems(ctx, c.systems, c.opts, copts, emit)
	} else {
		err = campaign.Run(ctx, c.specs, c.opts, copts, emit)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Records: records}, nil
}

func (m *Manager) runSweep(ctx context.Context, j *job, c *compiled) (*Result, error) {
	total := len(c.cfgs)
	m.updateProgress(j, func(p *Progress) { p.Total = total })
	// Points are independent, so the sweep shards across the job's
	// evaluation workers; each goroutine owns its own evaluation
	// session (analyze mode — sessions are not safe for concurrent
	// use), and results land positionally, so the output is identical
	// for any worker count.
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
			var session *core.Session
			if !c.simulate {
				session = core.NewSession(c.sys, c.opts.Sched)
			}
			for i := range idxc {
				pt := sweepPoint(c.sys, c.cfgs[i], c.opts, session, i, j.spec.Repetitions)
				points[i] = pt
				m.engine.Add(campaign.EngineStats{Evaluations: 1})
				m.updateProgress(j, func(p *Progress) {
					p.Completed++
					p.Engine.Evaluations++
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

// sweepPoint evaluates one configuration of a sweep.
func sweepPoint(sys *model.System, cfg *flexray.Config, opts core.Options, session *core.Session, idx, reps int) SweepPoint {
	pt := SweepPoint{Index: idx}
	if session != nil {
		res, cost := session.Eval(cfg)
		if res == nil {
			pt.Err = "schedule construction failed"
			return pt
		}
		pt.Cost = cost
		pt.Schedulable = res.Schedulable
		pt.ResponseUs = map[string]float64{}
		for id, rt := range res.R {
			pt.ResponseUs[sys.App.Act(id).Name] = rt.Us()
		}
		return pt
	}
	table, res, err := sched.Build(sys, cfg, opts.Sched)
	if err != nil {
		pt.Err = fmt.Sprintf("schedule construction failed: %v", err)
		return pt
	}
	pt.Cost = res.Cost
	pt.Schedulable = res.Schedulable
	simOpts := sim.DefaultOptions()
	if reps > 0 {
		simOpts.Repetitions = reps
	}
	simulator, err := sim.New(sys, cfg, table, simOpts)
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	sres, err := simulator.Run()
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	pt.MaxResponseUs = map[string]float64{}
	for id, rt := range sres.MaxResponse {
		pt.MaxResponseUs[sys.App.Act(id).Name] = rt.Us()
	}
	pt.DeadlineMisses = sres.DeadlineMisses
	return pt
}
