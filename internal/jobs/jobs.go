// Package jobs is the asynchronous face of the optimisation service: a
// job-orchestration subsystem layered on the campaign engine. A Manager
// owns a bounded priority queue and a worker pool executing three job
// kinds — single-system portfolio optimisation, batch campaigns over
// synthesised or uploaded populations, and analyze/simulate sweeps —
// each with a full lifecycle (queued → running → done/failed/
// cancelled), live progress counters, cooperative cancellation and an
// event stream per job. A pluggable Store makes jobs durable: the
// append-only JSONL FileStore replays on startup, so a restarted
// manager resumes its queued jobs and still serves the results of
// finished ones. A RetentionPolicy bounds the terminal jobs a manager
// keeps (deterministic oldest-first eviction, 410-style ErrEvicted
// for dropped IDs) and store compaction rewrites the log to live
// state, so neither memory nor the store grows with history; the
// record grammar and the replay/compaction invariants are documented
// in store.go.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/synth"
)

// Kind selects what a job computes.
type Kind string

const (
	// KindOptimize races the optimiser portfolio on one system.
	KindOptimize Kind = "optimize"
	// KindCampaign optimises a whole population — synthesised from
	// generator parameters or uploaded as explicit systems — through
	// the campaign engine's sharding.
	KindCampaign Kind = "campaign"
	// KindSweep analyses or simulates one system under many candidate
	// configurations (a what-if batch).
	KindSweep Kind = "sweep"
)

// Status is the lifecycle state of a job.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Valid reports whether s is a known status; list filters and store
// replay reject unknown ones.
func (s Status) Valid() bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// Tuning are the user-tunable optimiser knobs of a job; zero values
// keep the defaults of core.DefaultOptions.
type Tuning struct {
	DYNGridCap       int   `json:"dyn_grid_cap,omitempty"`
	SlotCountCap     int   `json:"slot_count_cap,omitempty"`
	SlotLenSteps     int   `json:"slot_len_steps,omitempty"`
	MaxEvaluations   int   `json:"max_evaluations,omitempty"`
	SAIterations     int   `json:"sa_iterations,omitempty"`
	SASeed           int64 `json:"sa_seed,omitempty"`
	DivergenceFactor int   `json:"divergence_factor,omitempty"`
}

// Apply overlays the non-zero knobs onto opts.
func (t *Tuning) Apply(opts core.Options) core.Options {
	if t == nil {
		return opts
	}
	if t.DYNGridCap > 0 {
		opts.DYNGridCap = t.DYNGridCap
	}
	if t.SlotCountCap > 0 {
		opts.SlotCountCap = t.SlotCountCap
	}
	if t.SlotLenSteps > 0 {
		opts.SlotLenSteps = t.SlotLenSteps
	}
	if t.MaxEvaluations > 0 {
		opts.MaxEvaluations = t.MaxEvaluations
	}
	if t.SAIterations > 0 {
		opts.SAIterations = t.SAIterations
	}
	if t.SASeed != 0 {
		opts.SASeed = t.SASeed
	}
	if t.DivergenceFactor > 0 {
		opts.Sched.Analysis.DivergenceFactor = t.DivergenceFactor
	}
	return opts
}

// TuningFromOptions projects opts onto the serialisable knob set, so a
// locally configured run can be resubmitted to a remote manager.
func TuningFromOptions(opts core.Options) *Tuning {
	return &Tuning{
		DYNGridCap:       opts.DYNGridCap,
		SlotCountCap:     opts.SlotCountCap,
		SlotLenSteps:     opts.SlotLenSteps,
		MaxEvaluations:   opts.MaxEvaluations,
		SAIterations:     opts.SAIterations,
		SASeed:           opts.SASeed,
		DivergenceFactor: opts.Sched.Analysis.DivergenceFactor,
	}
}

// Population describes a campaign job's input set: either generator
// parameters for a synthesised Section 7 population, or explicit
// uploaded systems. Exactly one of the two forms must be used.
type Population struct {
	// NodeCounts/AppsPerCount/Seed/DeadlineFactor parameterise a
	// synthesised population (campaign.PopulationSpecs).
	NodeCounts     []int   `json:"node_counts,omitempty"`
	AppsPerCount   int     `json:"apps_per_count,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// Systems are uploaded systems in the JSON interchange format.
	Systems []json.RawMessage `json:"systems,omitempty"`
}

// Spec describes one job as submitted by a client. Specs are stored
// verbatim in the job store and must stay JSON round-trippable.
type Spec struct {
	Kind Kind `json:"kind"`
	// Priority orders the queue: higher runs first, FIFO within one
	// priority.
	Priority int `json:"priority,omitempty"`
	// Workers bounds the job's evaluation parallelism; <= 0 uses the
	// manager default. The campaign engine clamps excessive values to
	// a small multiple of the CPU count, so untrusted submissions
	// cannot spawn unbounded goroutines.
	Workers int `json:"workers,omitempty"`
	// Algorithms selects the optimisers (optimize, campaign); empty
	// means the full canonical portfolio.
	Algorithms []string `json:"algorithms,omitempty"`
	// SAWarmFromOBC warm-starts SA from the best OBC configuration
	// per system (campaign only; the Fig. 9 baseline protocol).
	SAWarmFromOBC bool `json:"sa_warm_from_obc,omitempty"`
	// Tuning overlays optimiser knobs onto the defaults.
	Tuning *Tuning `json:"tuning,omitempty"`
	// System is the system under evaluation (optimize, sweep).
	System json.RawMessage `json:"system,omitempty"`
	// Population is the campaign input set (campaign only).
	Population *Population `json:"population,omitempty"`
	// Configs are the candidate configurations of a sweep.
	Configs []json.RawMessage `json:"configs,omitempty"`
	// Mode selects the sweep evaluation: "analyze" (default) or
	// "simulate".
	Mode string `json:"mode,omitempty"`
	// Repetitions tunes simulate sweeps (0 keeps the default).
	Repetitions int `json:"repetitions,omitempty"`
	// TraceParent is the W3C traceparent of the span that submitted
	// the job. The manager continues that trace when it runs the job,
	// so a request trace spans the asynchronous boundary — and, since
	// specs are stored verbatim, even a manager restart. Empty when
	// the submitter was not traced.
	TraceParent string `json:"trace_parent,omitempty"`
	// Distribute picks who runs a campaign's shards (campaign only):
	// worker peers pulling them as leases over /v1/leases instead of
	// the job's own goroutine. Every campaign runs on the same shard
	// table with durable per-shard results, so the records are
	// bit-identical either way; see lease.go.
	Distribute bool `json:"distribute,omitempty"`
	// ShardSystems overrides the manager's systems-per-shard split for
	// this campaign, local or distributed; <= 0 keeps the manager
	// default.
	ShardSystems int `json:"shard_systems,omitempty"`
}

// compiled is a Spec parsed into runnable form. Compilation happens
// once at submission (validation) and once again when the job runs —
// replayed jobs skip the former.
type compiled struct {
	opts       core.Options
	algorithms []string
	sys        *model.System   // optimize, sweep
	specs      []synth.Params  // campaign, synthesised
	systems    []*model.System // campaign, uploaded
	cfgs       []*flexray.Config
	simulate   bool
}

// Validate checks the spec without running it; the returned error is
// suitable for a 400 response.
func (s *Spec) Validate() error {
	_, err := s.compile()
	return err
}

func (s *Spec) compile() (*compiled, error) {
	c := &compiled{opts: s.Tuning.Apply(core.DefaultOptions())}
	for _, a := range s.Algorithms {
		canon, err := campaign.NormalizeAlgorithm(a)
		if err != nil {
			return nil, err
		}
		c.algorithms = append(c.algorithms, canon)
	}
	switch s.Kind {
	case KindOptimize:
		sys, err := parseSystem(s.System)
		if err != nil {
			return nil, err
		}
		c.sys = sys
	case KindCampaign:
		if s.Population == nil {
			return nil, errors.New(`jobs: campaign needs a "population"`)
		}
		p := s.Population
		synthetic := len(p.NodeCounts) > 0 || p.AppsPerCount > 0
		switch {
		case synthetic && len(p.Systems) > 0:
			return nil, errors.New("jobs: population is either synthesised (node_counts) or uploaded (systems), not both")
		case synthetic:
			if len(p.NodeCounts) == 0 || p.AppsPerCount <= 0 {
				return nil, errors.New("jobs: synthesised population needs node_counts and apps_per_count")
			}
			c.specs = campaign.PopulationSpecs(p.NodeCounts, p.AppsPerCount, p.Seed, p.DeadlineFactor)
		case len(p.Systems) > 0:
			for i, raw := range p.Systems {
				sys, err := parseSystem(raw)
				if err != nil {
					return nil, fmt.Errorf("jobs: population system %d: %w", i, err)
				}
				c.systems = append(c.systems, sys)
			}
		default:
			return nil, errors.New("jobs: empty population")
		}
	case KindSweep:
		sys, err := parseSystem(s.System)
		if err != nil {
			return nil, err
		}
		c.sys = sys
		if len(s.Configs) == 0 {
			return nil, errors.New(`jobs: sweep needs "configs"`)
		}
		for i, raw := range s.Configs {
			cfg, err := flexray.ReadJSON(bytes.NewReader(raw), sys)
			if err != nil {
				return nil, fmt.Errorf("jobs: config %d: %w", i, err)
			}
			if err := cfg.Validate(c.opts.Params, sys); err != nil {
				return nil, fmt.Errorf("jobs: config %d: %w", i, err)
			}
			c.cfgs = append(c.cfgs, cfg)
		}
		switch s.Mode {
		case "", "analyze":
		case "simulate":
			c.simulate = true
		default:
			return nil, fmt.Errorf("jobs: unknown sweep mode %q (want analyze or simulate)", s.Mode)
		}
	default:
		return nil, fmt.Errorf("jobs: unknown job kind %q (want optimize, campaign or sweep)", s.Kind)
	}
	if s.Distribute && s.Kind != KindCampaign {
		return nil, errors.New("jobs: distribute applies to campaign jobs only")
	}
	if s.ShardSystems < 0 {
		return nil, errors.New("jobs: shard_systems must be >= 0")
	}
	return c, nil
}

func parseSystem(raw json.RawMessage) (*model.System, error) {
	if len(raw) == 0 {
		return nil, errors.New(`jobs: missing "system"`)
	}
	return model.ReadJSON(bytes.NewReader(raw))
}

// Progress carries the live counters of a job. Completed never
// decreases over the lifetime of a run, so progress streams are
// monotone.
type Progress struct {
	// Total/Completed count the job's work items: systems for a
	// campaign, configurations for a sweep, 1 for an optimisation.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Schedulable counts completed items with a schedulable best.
	Schedulable int `json:"schedulable"`
	// Best identifies the cheapest item so far — the system name for
	// campaigns, the winning algorithm for an optimisation, the
	// configuration index for sweeps; empty while nothing succeeded.
	Best     string  `json:"best,omitempty"`
	BestCost float64 `json:"best_cost"`
	// Engine accumulates the evaluation-engine counters of the job.
	Engine campaign.EngineStats `json:"engine"`
}

// Job is the externally visible snapshot of one job. The spec is kept
// out of the snapshot on purpose: uploaded populations make it large.
type Job struct {
	ID          string    `json:"id"`
	Kind        Kind      `json:"kind"`
	Priority    int       `json:"priority,omitempty"`
	Status      Status    `json:"status"`
	Error       string    `json:"error,omitempty"`
	Progress    Progress  `json:"progress"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// TraceID is the hex trace the job's spans belong to (set once
	// the job starts under a tracing-enabled manager).
	TraceID string `json:"trace_id,omitempty"`
}

// OptimizeResult is the payload of a finished optimize job and the
// answer of POST /v1/optimize (reshaped there under "best").
type OptimizeResult struct {
	Algorithm   string               `json:"algorithm"`
	Cost        float64              `json:"cost"`
	Schedulable bool                 `json:"schedulable"`
	Evaluations int                  `json:"evaluations"`
	ElapsedUs   int64                `json:"elapsed_us"`
	Config      json.RawMessage      `json:"config"`
	Runs        []campaign.AlgoRun   `json:"runs"`
	Engine      campaign.EngineStats `json:"engine"`
}

// AnalyzeResult is the holistic analysis of one configuration: the
// body of POST /v1/analyze and part of every sweep point. Response
// times and violations are keyed by activity name.
type AnalyzeResult struct {
	Schedulable bool               `json:"schedulable"`
	Cost        float64            `json:"cost"`
	Converged   bool               `json:"converged"`
	CycleUs     float64            `json:"cycle_us"`
	ResponseUs  map[string]float64 `json:"response_us"`
	Violations  []string           `json:"violations,omitempty"`
}

// SimulateResult is what one simulation of a configuration observed:
// the body of POST /v1/simulate and part of every simulate-mode sweep
// point.
type SimulateResult struct {
	MaxResponseUs  map[string]float64 `json:"max_response_us"`
	Completions    map[string]int     `json:"completions"`
	DeadlineMisses int                `json:"deadline_misses"`
	Unfinished     int                `json:"unfinished"`
}

// SweepPoint is the outcome of one configuration of a sweep job. Every
// point whose schedule could be built carries its analysis; a
// simulate-mode point adds the simulation. Err says why a point
// stopped short.
type SweepPoint struct {
	Index int `json:"index"`
	*AnalyzeResult
	*SimulateResult
	Err string `json:"error,omitempty"`
}

// Result is the payload of a finished job; exactly one field is set,
// matching the job kind.
type Result struct {
	Optimize *OptimizeResult   `json:"optimize,omitempty"`
	Records  []campaign.Record `json:"records,omitempty"`
	Sweep    []SweepPoint      `json:"sweep,omitempty"`
}

// Event is one element of a job's progress stream.
type Event struct {
	// Type is "update" for progress/status changes and "done" for the
	// terminal transition.
	Type string `json:"type"`
	Job  Job    `json:"job"`
}

// Errors returned by the manager; the HTTP layer maps them onto status
// codes.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: manager closed")
	ErrNotFound  = errors.New("jobs: no such job")
	// ErrEvicted marks a job the retention policy dropped: it existed
	// and finished, but its snapshot and result are gone for good
	// (the HTTP layer answers 410 Gone, not 404).
	ErrEvicted     = errors.New("jobs: job evicted by retention")
	ErrNotFinished = errors.New("jobs: job not finished")
	ErrTerminal    = errors.New("jobs: job already finished")
	ErrNoResult    = errors.New("jobs: job produced no result")
	// ErrStore marks a durable-store failure: the submission was
	// well-formed but could not be persisted (a server fault, not a
	// client error).
	ErrStore = errors.New("jobs: store failure")
	// ErrLeaseNotFound marks a lease ID the manager never granted (or
	// granted so long ago the retired-lease memory dropped it).
	ErrLeaseNotFound = errors.New("jobs: no such lease")
	// ErrLeaseStale marks a lease that is no longer held: it expired,
	// was superseded by a re-grant, or its shard already completed.
	// The shard's job is still live; the worker should drop the shard
	// and claim fresh work (HTTP 409).
	ErrLeaseStale = errors.New("jobs: lease no longer held")
	// ErrLeaseGone marks a lease retired together with its job — the
	// job finished, failed, was cancelled or evicted; there is nothing
	// left to report against (HTTP 410).
	ErrLeaseGone = errors.New("jobs: lease retired with its job")
	// ErrLeasePayload marks a shard completion whose records do not
	// match the leased systems — wrong count, or a record describing
	// another system (a client error, HTTP 400).
	ErrLeasePayload = errors.New("jobs: shard result does not match the lease")
)
