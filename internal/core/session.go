package core

import (
	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
)

// Session is a reusable evaluation pipeline for one system under one
// set of analysis options. It replaces the build-everything-from-scratch
// evaluation (one schedule table plus one fresh Analyzer per candidate)
// with two layers of reuse:
//
//   - a sched.Plan compiles the list scheduler once per system and
//     rebuilds one schedule table in place for every candidate, so a
//     build runs only the per-configuration scheduling loop and does
//     not allocate;
//   - a resettable analysis.Analyzer keeps the system-dependent state
//     and scratch buffers across candidate configurations, with
//     fine-grained invalidation of the config- and table-derived
//     caches.
//
// Every evaluation is bit-identical to the fresh path
// (sched.Build + analysis.New): the analyses are pure functions of
// (system, config, table, options) and the rebuilt tables are identical
// to freshly built ones. A Session is not safe for concurrent use; the
// campaign engine pins one to each worker.
type Session struct {
	plan *sched.Plan
	an   *analysis.Analyzer
}

// NewSession builds an evaluation session for one system.
func NewSession(sys *model.System, opts sched.Options) *Session {
	return &Session{
		plan: sched.NewPlan(sys),
		an:   analysis.NewReusable(sys, opts.Analysis),
	}
}

// Eval runs one candidate evaluation — schedule table plus holistic
// analysis — and returns the analysis result and its Eq. (5) cost, or
// (nil, infeasibleCost) when no table can be constructed. The returned
// Result is freshly allocated and remains valid after further Eval
// calls; all internal scratch is reused.
func (s *Session) Eval(cfg *flexray.Config) (*analysis.Result, float64) {
	table, err := s.plan.BuildTable(cfg)
	if err != nil {
		return nil, infeasibleCost
	}
	s.an.Reset(cfg, table)
	res := s.an.Run()
	return res, res.Cost
}

// Analyze is Eval for callers that report why a candidate failed: it
// returns the schedule-table construction error instead of the
// infeasible cost. The failed build is repeated to recover its error
// (builds are deterministic), so Eval, the optimisers' hot path (about
// 70% of flexray-serve's CPU under the benchmark workloads), carries
// no error plumbing.
func (s *Session) Analyze(cfg *flexray.Config) (*analysis.Result, error) {
	if res, _ := s.Eval(cfg); res != nil {
		return res, nil
	}
	_, err := s.plan.BuildTable(cfg)
	return nil, err
}
