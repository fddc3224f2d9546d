// Package flexopt is a library for designing and optimising the bus
// access configuration of FlexRay-based distributed hard real-time
// systems. It reproduces, as a complete working system, the approach of
//
//	T. Pop, P. Pop, P. Eles, Z. Peng,
//	"Bus Access Optimisation for FlexRay-based Distributed Embedded
//	Systems", DATE 2007, DOI 10.1109/DATE.2007.364566,
//
// together with the substrates that paper builds on: the holistic
// schedulability analysis for FlexRay (ECRTS 2006), the hierarchical
// static-cyclic/fixed-priority scheduling model (RTCSA 2005), and a
// discrete-event simulator of the whole protocol.
//
// # Model
//
// Applications are sets of directed acyclic task graphs whose vertices
// are tasks (mapped on processing nodes) and messages (transmitted over
// a single FlexRay bus). Tasks are either statically scheduled (SCS,
// offline-fixed start times) or fixed-priority scheduled (FPS, running
// preemptively in the slack of the static schedule); messages travel
// either in the static segment (ST, schedule-table driven GTDMA slots)
// or the dynamic segment (DYN, FTDMA minislot arbitration). Build
// systems with NewBuilder, load them from JSON with ReadSystem, or
// generate random populations with Generate.
//
// # Optimisation
//
// A Config fixes the six design variables of the paper's Section 6:
// static slot length, static slot count, slot-to-node assignment,
// dynamic segment length, and the FrameID assignment of DYN messages.
// Four optimisers search this space:
//
//   - BBC: the minimal Basic Bus Configuration (fast, often
//     unschedulable for larger systems);
//   - OBCCF: the Optimised Bus Configuration heuristic with
//     curve-fitting based dynamic-segment sizing (the paper's main
//     contribution);
//   - OBCEE: OBC with exhaustive dynamic-segment exploration (slower,
//     marginally better);
//   - SA: a simulated-annealing explorer used as evaluation baseline.
//
// Every candidate configuration is evaluated by constructing the full
// static schedule (list scheduling with a critical-path priority) and
// running the holistic schedulability analysis; the cost function is
// the paper's Eq. (5) schedulability degree.
//
// # Evaluation pipeline
//
// Candidate evaluation — the hot path of every optimiser — runs on
// reusable evaluation sessions (EvalSession) rather than rebuilding the
// stack per candidate. A session owns a resettable holistic analyzer
// whose system-dependent state (priority lists, message sets,
// topological orders) is computed once, whose configuration- and
// table-derived caches are invalidated only when the inputs they
// depend on change (DYN interference environments survive any change
// that keeps the FrameID assignment and minislot length; availability
// functions are memoised on the schedule table itself), and whose
// fixpoint scratch buffers are pooled across runs. Inside one analysis
// run, each response window (FPS busy window, DYN Eq. (3) fixpoint) is
// reused across jitter-propagation passes until the jitter of one of
// its interferers changes; nothing of it survives the run. A session
// also compiles the list scheduler once and rebuilds one schedule
// table in place for every candidate, so a table build does not
// allocate.
// Sessions are bit-identical to the from-scratch pipeline —
// BuildSchedule plus a single-use analyzer — which the test-suite pins
// by replaying shuffled candidate streams of all four algorithms
// through one session.
//
// # Validation
//
// Simulate runs a discrete-event simulation of the configured system —
// kernels, CHI buffers and the bus automaton — and reports observed
// response times, which are validated against the analysis bounds in
// this repository's test-suite (and reproduce the paper's Fig. 1, 3, 4
// examples cycle by cycle).
//
// # Campaigns and serving
//
// The campaign layer scales the optimisers from one goroutine to the
// whole machine. Every optimiser spends its budget on one pure
// operation — schedule build plus holistic analysis of a candidate
// configuration — and the engine behind EngineOptions parallelises
// exactly that: independent sweep candidates fan across a worker pool
// whose workers each pin their own evaluation session, results are
// memoised in a bounded LRU cache keyed on the configuration
// fingerprint and sharded into power-of-two lock domains scaled to the
// worker count, and a context cancels in-flight work. Because
// evaluations are pure, results are bit-identical at any worker count.
//
// Portfolio races BBC, OBC-CF, OBC-EE and SA concurrently on one
// system over a shared engine (the cheap heuristics warm the cache
// for the expensive ones) and returns the best Result plus
// per-algorithm telemetry. Campaign and CampaignJSONL shard a
// generated population — PopulationSpecs builds the paper's
// Section 7 sets — across workers and stream per-system records in
// deterministic order; CampaignSystems does the same over an explicit,
// pre-built population. The Fig. 7 and Fig. 9 experiment sweeps run on
// this engine.
//
// # Jobs
//
// The job subsystem is the asynchronous face of the campaign layer,
// built for work that outlives a request: whole-population campaigns,
// what-if configuration sweeps, long portfolio optimisations. A
// JobManager (NewJobManager) owns a bounded priority queue and a
// worker pool executing three job kinds — JobOptimize, JobCampaign
// over synthesised or uploaded populations, and JobSweep
// (analyze/simulate batches) — each with a full lifecycle (queued,
// running, done/failed/cancelled), monotone progress counters
// (systems completed, best cost so far, engine cache stats),
// cooperative cancellation and a per-job event stream (Subscribe).
// Durability is pluggable through JobStore: NewJobMemStore keeps jobs
// in memory, NewJobFileStore appends every submission and transition
// to a JSONL file and replays it on startup, so a killed or gracefully
// stopped manager resumes interrupted jobs and still serves the
// results of finished ones.
//
// # Retention and compaction
//
// Long-lived managers bound their footprint on two axes. A
// JobRetention policy in JobManagerOptions evicts terminal jobs —
// deterministically oldest-finished first, submission order on ties —
// when any of three limits is exceeded: a terminal-job count, a
// maximum age, or a budget on the summed encoded size of retained
// results (which skips result-less failed/cancelled jobs). Evicted
// IDs answer ErrJobEvicted rather than not-found (flexray-serve maps
// it to 410 Gone), durably across restarts for the most recent 1024
// evictions. Store compaction — periodic via
// JobManagerOptions.CompactInterval, always at Close, on demand via
// JobManager.Compact — atomically rewrites the JSONL log to a
// snapshot of live state (retained jobs plus eviction tombstones), so
// startup replay cost is proportional to what is retained, not to
// history; a crash mid-compact leaves the previous log intact. Both
// are invisible to correctness: a manager restarted from a compacted
// store serves retained results byte-identically and resumes
// interrupted jobs exactly as one replaying the full history would.
//
// cmd/flexray-serve exposes the same pipeline as a JSON HTTP service:
// POST /v1/optimize, /v1/analyze and /v1/simulate synchronously, with
// bounded concurrency, body and time limits; and the job subsystem
// under /v1/jobs (submit, list, poll, result, cancel, and live
// progress via Server-Sent Events on /v1/jobs/{id}/events), with
// graceful shutdown checkpointing outstanding jobs to the -store file
// and the -retain-*/-compact-interval flags bounding store and memory
// growth. OPERATIONS.md is the operator-facing guide: store sizing,
// retention tuning, crash-recovery semantics, alerting.
//
// # Performance regression tracking
//
// PerfSuite is the curated macro-benchmark suite over the hot paths
// above: evaluation sessions versus the from-scratch pipeline,
// campaign-engine throughput at one and GOMAXPROCS workers, job
// submit→drain latency, Fig. 7/Fig. 9 regeneration, and JSONL store
// replay and compaction. PerfRun measures it with calibrated
// repetition and robust statistics (median + MAD) plus a separate
// fixed-repetition allocation pass, producing a schema-versioned
// PerfReport — the BENCH_<seq>.json files committed at the repo root
// are that report, one per PR: the machine-readable performance
// trajectory. PerfCompare gates a report against a baseline with
// noise-tolerant per-metric thresholds (15% on time, widened by the
// observed sample spread; exact allocation equality on
// single-goroutine scenarios, whose counts are deterministic).
// `flexray-bench perf` is the CLI over the same functions, and CI
// runs it against the newest committed baseline on every push; see
// the "Performance baselines" section of OPERATIONS.md.
package flexopt
