package flexopt

import (
	"context"
	"io"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perfreg"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/units"
)

// Time and duration handling (integer nanoseconds).
type (
	// Duration is a span of simulated time in nanoseconds.
	Duration = units.Duration
	// Time is an absolute instant of simulated time.
	Time = units.Time
)

// Common duration units.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
)

// Microseconds converts (possibly fractional) microseconds to a
// Duration.
func Microseconds(us float64) Duration { return units.Microseconds(us) }

// Milliseconds converts (possibly fractional) milliseconds to a
// Duration.
func Milliseconds(ms float64) Duration { return units.Milliseconds(ms) }

// Application model.
type (
	// System is an application mapped onto a platform of nodes
	// connected by one FlexRay bus.
	System = model.System
	// Builder assembles systems programmatically.
	Builder = model.Builder
	// Activity is a task or message vertex of a task graph.
	Activity = model.Activity
	// ActID identifies an activity within a system.
	ActID = model.ActID
	// NodeID identifies a processing node.
	NodeID = model.NodeID
)

// Scheduling policies and message classes.
const (
	// SCS marks static cyclic scheduled (time-triggered) tasks.
	SCS = model.SCS
	// FPS marks fixed-priority scheduled (event-triggered) tasks.
	FPS = model.FPS
	// ST marks static-segment messages.
	ST = model.ST
	// DYN marks dynamic-segment messages.
	DYN = model.DYN
)

// NewBuilder starts a new system description with the given name and
// number of nodes.
func NewBuilder(name string, numNodes int) *Builder { return model.NewBuilder(name, numNodes) }

// ReadSystem parses a system from its JSON interchange format.
func ReadSystem(r io.Reader) (*System, error) { return model.ReadJSON(r) }

// Bus configuration.
type (
	// Config is a complete FlexRay bus access configuration: the
	// object the optimisers search for.
	Config = flexray.Config
	// BusParams are physical-layer constants (gdBit, macrotick).
	BusParams = flexray.Params
	// LatestTxPolicy selects the dynamic-segment admission rule.
	LatestTxPolicy = flexray.LatestTxPolicy
)

// Latest-transmission policies.
const (
	// LatestTxPerFrame admits a dynamic frame iff it fits the
	// remaining segment (the paper's Fig. 4 semantics; default).
	LatestTxPerFrame = flexray.LatestTxPerFrame
	// LatestTxPerNode uses the specification's per-node pLatestTx.
	LatestTxPerNode = flexray.LatestTxPerNode
)

// DefaultBusParams returns a 10 Mbit/s channel with a 1 µs macrotick.
func DefaultBusParams() BusParams { return flexray.DefaultParams() }

// Optimisation.
type (
	// Options tune the optimisers; see DefaultOptions.
	Options = core.Options
	// Result is the outcome of an optimisation run.
	Result = core.Result
)

// DefaultOptions returns the options used by the paper-reproduction
// experiments.
func DefaultOptions() Options { return core.DefaultOptions() }

// BBC computes the Basic Bus Configuration (paper Fig. 5).
func BBC(sys *System, opts Options) (*Result, error) { return core.BBC(sys, opts) }

// OBCCF runs the Optimised Bus Configuration heuristic with
// curve-fitting dynamic-segment sizing (paper Fig. 6 + Fig. 8).
func OBCCF(sys *System, opts Options) (*Result, error) { return core.OBCCF(sys, opts) }

// OBCEE runs the OBC heuristic with exhaustive dynamic-segment
// exploration.
func OBCEE(sys *System, opts Options) (*Result, error) { return core.OBCEE(sys, opts) }

// SA runs the simulated-annealing baseline explorer.
func SA(sys *System, opts Options) (*Result, error) { return core.SA(sys, opts) }

// AssignFrameIDs performs the criticality-driven unique FrameID
// assignment of the paper's Fig. 5 line 1 (Eq. 4).
func AssignFrameIDs(sys *System) (map[ActID]int, error) { return core.AssignFrameIDs(sys) }

// Analysis and scheduling.
type (
	// ScheduleTable is the static schedule: SCS task start times and
	// ST message slot assignments.
	ScheduleTable = schedule.Table
	// AnalysisResult carries worst-case response times, jitters and
	// the Eq. (5) cost of one configuration.
	AnalysisResult = analysis.Result
	// SchedOptions carry the analysis options of BuildSchedule
	// and evaluation sessions.
	SchedOptions = sched.Options
)

// BuildSchedule runs the global scheduling algorithm (paper Fig. 2) for
// a fixed configuration and returns the schedule table plus the
// holistic analysis of the resulting system.
func BuildSchedule(sys *System, cfg *Config, opts SchedOptions) (*ScheduleTable, *AnalysisResult, error) {
	return sched.Build(sys, cfg, opts)
}

// EvalSession is a reusable evaluation pipeline for one system: a
// resettable holistic analyzer plus a compiled list scheduler that
// rebuilds one schedule table in place. Evaluating candidate
// configurations through one session is bit-identical to BuildSchedule
// but avoids rebuilding the system-dependent analysis and scheduling
// state, and allocating a new table, on every call. Sessions are what
// the optimisers and the campaign engine workers use internally; create
// one directly when driving many analyses of the same system yourself.
// Cache invalidation works from value snapshots, so mutating a Config
// between Eval calls (tweak-and-re-evaluate loops) is fine; a session
// is not safe for concurrent use.
type EvalSession = core.Session

// NewEvalSession builds an evaluation session for one system.
func NewEvalSession(sys *System, opts SchedOptions) *EvalSession {
	return core.NewSession(sys, opts)
}

// DefaultSchedOptions returns the default analysis options; SCS tasks
// are always placed first-fit.
func DefaultSchedOptions() SchedOptions { return sched.DefaultOptions() }

// Simulation.
type (
	// SimOptions tune the discrete-event simulation.
	SimOptions = sim.Options
	// SimResult aggregates observed response times and the bus
	// trace.
	SimResult = sim.Result
	// TraceEvent is one bus-level occurrence of the trace.
	TraceEvent = sim.TraceEvent
)

// DefaultSimOptions simulates one hyper-period with a generous drain.
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// Simulate runs the discrete-event simulator for a configured system.
func Simulate(sys *System, cfg *Config, table *ScheduleTable, opts SimOptions) (*SimResult, error) {
	s, err := sim.New(sys, cfg, table, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Workload generation.
type GenParams = synth.Params

// DefaultGenParams returns the paper's Section 7 population parameters
// for the given node count and seed.
func DefaultGenParams(nodes int, seed int64) GenParams { return synth.DefaultParams(nodes, seed) }

// Generate builds one random system from the Section 7 population.
func Generate(p GenParams) (*System, error) { return synth.Generate(p) }

// CruiseController returns the paper's real-life case study: 54 tasks
// and 26 messages in 4 task graphs over 5 nodes.
func CruiseController() (*System, error) { return cruise.System() }

// Concurrent campaign engine.
type (
	// EngineOptions tune the worker-pool evaluation engine; the
	// zero value selects GOMAXPROCS workers and the default cache.
	EngineOptions = campaign.EngineOptions
	// EngineStats report evaluations and cache traffic of one
	// engine.
	EngineStats = campaign.EngineStats
	// AlgoRun is the per-algorithm telemetry of a portfolio or
	// campaign run.
	AlgoRun = campaign.AlgoRun
	// PortfolioResult is the outcome of racing the optimiser
	// portfolio on one system.
	PortfolioResult = campaign.PortfolioResult
	// CampaignOptions tune a population sweep.
	CampaignOptions = campaign.Options
	// CampaignRecord is the streamed result of one system of a
	// campaign.
	CampaignRecord = campaign.Record
)

// PortfolioAlgorithms returns the canonical optimiser portfolio
// ("BBC", "OBC-CF", "OBC-EE", "SA").
func PortfolioAlgorithms() []string {
	return append([]string(nil), campaign.Algorithms...)
}

// Portfolio races the requested optimisers (default: the full
// portfolio) concurrently on one system over a shared caching
// evaluation engine and returns the best result plus per-algorithm
// telemetry. Results are identical for any worker count; cancelling
// ctx aborts the race.
func Portfolio(ctx context.Context, sys *System, opts Options, eng EngineOptions, algorithms ...string) (*PortfolioResult, error) {
	return campaign.Portfolio(ctx, sys, opts, eng, algorithms...)
}

// Campaign shards a generated population across workers and calls emit
// with one record per system, in spec order. Records are independent
// per system, so the output is deterministic for any worker count.
func Campaign(ctx context.Context, specs []GenParams, opts Options, copts CampaignOptions, emit func(CampaignRecord) error) error {
	return campaign.Run(ctx, specs, opts, copts, emit)
}

// CampaignJSONL runs a campaign and streams every record as one JSON
// line to w, returning the records for in-process aggregation.
func CampaignJSONL(ctx context.Context, specs []GenParams, opts Options, copts CampaignOptions, w io.Writer) ([]CampaignRecord, error) {
	return campaign.WriteJSONL(ctx, specs, opts, copts, w)
}

// PopulationSpecs builds the paper's Section 7 evaluation population:
// for each node count, apps systems seeded deterministically from
// seed. A positive deadlineFactor overrides the generator default.
func PopulationSpecs(nodeCounts []int, apps int, seed int64, deadlineFactor float64) []GenParams {
	return campaign.PopulationSpecs(nodeCounts, apps, seed, deadlineFactor)
}

// CampaignSystems is Campaign over an explicit, pre-built population —
// systems constructed with Builder or parsed from JSON instead of
// generator parameters — with the same sharding, ordering and
// determinism guarantees.
func CampaignSystems(ctx context.Context, systems []*System, opts Options, copts CampaignOptions, emit func(CampaignRecord) error) error {
	return campaign.RunSystems(ctx, systems, opts, copts, emit)
}

// Asynchronous job subsystem: durable optimisation jobs, batch
// campaigns and analyze/simulate sweeps with live progress streams.
type (
	// JobManager owns a bounded priority queue and a worker pool
	// executing async jobs; it is what flexray-serve exposes under
	// /v1/jobs.
	JobManager = jobs.Manager
	// JobManagerOptions size the worker pool and the queue, and carry
	// the retention policy and compaction interval.
	JobManagerOptions = jobs.ManagerOptions
	// JobRetention bounds the terminal jobs a manager retains; the
	// zero value keeps everything. Eviction is deterministic: oldest
	// FinishedAt first, submission order on ties.
	JobRetention = jobs.RetentionPolicy
	// JobSpec describes one job: kind, payload, priority and knobs.
	JobSpec = jobs.Spec
	// JobPopulation is a campaign job's input set (synthesised or
	// uploaded).
	JobPopulation = jobs.Population
	// JobTuning are the serialisable optimiser knobs of a job.
	JobTuning = jobs.Tuning
	// JobKind selects what a job computes.
	JobKind = jobs.Kind
	// JobStatus is the lifecycle state of a job.
	JobStatus = jobs.Status
	// Job is the externally visible snapshot of one job.
	Job = jobs.Job
	// JobProgress carries a job's live counters.
	JobProgress = jobs.Progress
	// JobResult is the payload of a finished job.
	JobResult = jobs.Result
	// JobEvent is one element of a job's progress stream.
	JobEvent = jobs.Event
	// JobStore persists job history for crash recovery and rewrites
	// it to a snapshot of live state on compaction.
	JobStore = jobs.Store
)

// Job kinds and lifecycle states.
const (
	JobOptimize = jobs.KindOptimize
	JobCampaign = jobs.KindCampaign
	JobSweep    = jobs.KindSweep

	JobQueued    = jobs.StatusQueued
	JobRunning   = jobs.StatusRunning
	JobDone      = jobs.StatusDone
	JobFailed    = jobs.StatusFailed
	JobCancelled = jobs.StatusCancelled
)

// ErrJobEvicted marks a job the manager's retention policy dropped:
// it existed and finished, but its snapshot and result are gone for
// good (flexray-serve answers 410 Gone). Distinct from the not-found
// error an unknown ID yields.
var ErrJobEvicted = jobs.ErrEvicted

// NewJobManager builds a job manager over the given store (nil keeps
// jobs in memory), replaying the store's history — finished jobs come
// back with their results, interrupted ones are re-enqueued — and
// starting the worker pool and its one background loop (lease expiry,
// age retention, periodic compaction). Close it to checkpoint
// outstanding work; Close also rewrites the store to live state so the
// next startup replays the snapshot, not history. A JobRetention
// policy in the options bounds terminal-job state; JobManager.Compact
// forces a store rewrite on demand.
func NewJobManager(store JobStore, opts JobManagerOptions) (*JobManager, error) {
	return jobs.NewManager(store, opts)
}

// NewJobMemStore returns an in-memory job store (no crash recovery).
func NewJobMemStore() JobStore { return jobs.NewMemStore() }

// NewJobFileStore opens (creating if needed) the append-only JSONL job
// store at path; a manager built over it resumes the recorded state.
// Compaction (periodic via JobManagerOptions.CompactInterval, always
// at Close) atomically rewrites the log to a snapshot of live state,
// so it grows with the live job set and the append tail, not with all
// history.
func NewJobFileStore(path string) (JobStore, error) { return jobs.NewFileStore(path) }

// Performance-regression harness: the curated macro-benchmark suite
// behind `flexray-bench perf` and the committed BENCH_<seq>.json
// trajectory.
type (
	// PerfScenario is one macro-benchmark of the suite.
	PerfScenario = perfreg.Scenario
	// PerfMeasureConfig tunes sampling; see PerfQuickConfig.
	PerfMeasureConfig = perfreg.MeasureConfig
	// PerfReport is one schema-versioned BENCH_<seq>.json: per-
	// scenario ns/op, allocs/op, B/op and throughput plus an
	// environment fingerprint and git SHA.
	PerfReport = perfreg.Report
	// PerfScenarioResult is one scenario's measured metrics and
	// regression thresholds.
	PerfScenarioResult = perfreg.ScenarioResult
	// PerfCompareOptions tune the regression gate (cross-machine
	// time-tolerance override, MAD noise widening).
	PerfCompareOptions = perfreg.CompareOptions
	// PerfComparison is the outcome of gating a run against a
	// baseline report.
	PerfComparison = perfreg.Comparison
)

// PerfSuite returns the curated macro-benchmark suite: evaluation
// sessions vs the fresh path, campaign-engine throughput, the async
// job pipeline, figure regeneration and the durable job store.
func PerfSuite() []*PerfScenario { return perfreg.Suite() }

// PerfQuickConfig returns the reduced CI sampling configuration
// (noisier timings, allocation counts identical to a full run).
func PerfQuickConfig() PerfMeasureConfig { return perfreg.QuickConfig() }

// PerfRun measures a scenario suite with calibrated repetition and
// robust statistics (median + MAD) and assembles the report.
func PerfRun(scens []*PerfScenario, cfg PerfMeasureConfig) (*PerfReport, error) {
	return perfreg.RunSuite(scens, cfg)
}

// PerfCompare gates cur against a baseline report: per-metric
// noise-tolerant thresholds, 15% on time and exact allocation counts
// by default. Comparison.OK reports the verdict; Comparison.Table
// renders the human diff.
func PerfCompare(base, cur *PerfReport, opts PerfCompareOptions) *PerfComparison {
	return perfreg.Compare(base, cur, opts)
}

// ReadPerfReport parses a BENCH_<seq>.json, rejecting unknown schema
// versions.
func ReadPerfReport(path string) (*PerfReport, error) { return perfreg.ReadReport(path) }

// Observability: the dependency-free metrics and span-tracing layer
// behind flexray-serve's GET /metrics and GET /v1/traces/{id}.
type (
	// MetricsRegistry holds named instrument families (counters,
	// gauges, histograms, scrape-time funcs) and writes them in the
	// Prometheus text exposition format; it implements http.Handler.
	MetricsRegistry = obs.Registry
	// MetricCounter is a monotonically increasing atomic counter.
	MetricCounter = obs.Counter
	// MetricGauge is an atomic instantaneous value.
	MetricGauge = obs.Gauge
	// MetricHistogram is a fixed-bucket latency/size distribution.
	MetricHistogram = obs.Histogram
	// Tracer records span trees into its span store; pass one to
	// JobManagerOptions.Tracer to trace jobs down to the optimiser
	// runs, whose "opt.<ALG>" spans carry the convergence curve as
	// "best" events.
	Tracer = obs.Tracer
	// TracerOptions configures a Tracer: span store, head-sampling
	// ratio, slow-span threshold and optimiser span detail.
	TracerOptions = obs.TracerOptions
	// JobMetrics bridges one JobManager's telemetry into a registry;
	// see NewJobMetrics and JobManagerOptions.Metrics.
	JobMetrics = jobs.Metrics
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a span tracer; a nil TracerOptions.Store selects a
// store with default bounds (read it back with Tracer.Store).
func NewTracer(o TracerOptions) *Tracer { return obs.NewTracer(o) }

// ParseTraceID parses the 32-hex-digit trace ID a job reports
// (Job.TraceID) into the key of its span store entry.
func ParseTraceID(id string) (obs.TraceID, error) { return obs.ParseTraceID(id) }

// SpanAttr returns the value of the span or span-event attribute named
// key (string, int64, float64 or bool), or nil when there is none.
func SpanAttr(attrs []obs.Attr, key string) any { return obs.AttrValue(attrs, key) }

// NewJobMetrics registers the job-manager and store instrument
// families on r; pass the result to exactly one manager via
// JobManagerOptions.Metrics.
func NewJobMetrics(r *MetricsRegistry) *JobMetrics { return jobs.NewMetrics(r) }
