package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// ManagerOptions tune a job manager.
type ManagerOptions struct {
	// Workers is the number of jobs executed concurrently; <= 0
	// selects 2. Each job additionally parallelises internally up to
	// its spec's Workers (or EvalWorkers).
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs;
	// <= 0 selects 64. Submissions beyond it fail with ErrQueueFull —
	// the manager sheds instead of queueing unboundedly.
	QueueCap int
	// EvalWorkers is the per-job evaluation parallelism used when a
	// spec does not set its own; <= 0 selects 1.
	EvalWorkers int
	// Retention bounds the terminal jobs (and their results) the
	// manager keeps; the zero value retains everything for the
	// manager's lifetime. See RetentionPolicy for the eviction order.
	Retention RetentionPolicy
	// CompactInterval triggers periodic store compaction: every
	// interval with new records appended, the store is rewritten to a
	// snapshot of live state. <= 0 compacts only at Close.
	CompactInterval time.Duration
	// Logf receives operational messages (store append failures,
	// replay summaries, compaction outcomes); nil selects log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, publishes the manager's telemetry —
	// queue depth, per-state gauges, submit→start latency, run
	// durations, store append/compaction timings — into the metrics
	// registry the Metrics value was built over. One Metrics value
	// serves exactly one manager. Nil disables instrumentation at
	// zero cost.
	Metrics *Metrics
	// Tracer, when non-nil, spans the job lifecycle: a queued-wait
	// span, the run itself (whose context the campaign and optimiser
	// layers extend with their own child spans), the terminal store
	// append and store compactions. A job whose spec carries a
	// TraceParent continues the submitter's trace; otherwise each job
	// starts its own. Nil disables job tracing at zero cost.
	Tracer *obs.Tracer
	// LeaseTTL is how long a granted shard lease of a distributed
	// campaign survives without a renewal before its shard re-queues;
	// <= 0 selects 30s. See lease.go.
	LeaseTTL time.Duration
	// LeaseSystems is the default systems-per-shard split of every
	// campaign, local or distributed (a spec's ShardSystems overrides
	// it): each shard is one durable unit of progress and restart,
	// and one lease when the campaign is distributed. <= 0 selects 4.
	LeaseSystems int
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.EvalWorkers <= 0 {
		o.EvalWorkers = 1
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.LeaseSystems <= 0 {
		o.LeaseSystems = 4
	}
	return o
}

// job is the manager-internal state of one job; every field is guarded
// by the manager mutex except the immutable id/spec/seq.
type job struct {
	id   string
	spec Spec
	seq  uint64

	status      Status
	err         string
	progress    Progress
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	heapIdx    int
	cancel     context.CancelFunc // non-nil while running
	userCancel bool
	result     *Result
	// resultBytes is the encoded size of result, charged against
	// RetentionPolicy.MaxResultBytes while the job is retained.
	resultBytes int64
	subs        map[*subscriber]struct{}
	// traceID links the job to its span trace (tracing-enabled
	// managers only).
	traceID string
}

func (j *job) snapshot() Job {
	return Job{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Priority:    j.spec.Priority,
		Status:      j.status,
		Error:       j.err,
		Progress:    j.progress,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		TraceID:     j.traceID,
	}
}

// subscriber is one live event stream. Sends and the single close all
// happen under the manager mutex, keyed on set membership, so a
// channel is never closed twice or sent to after close.
type subscriber struct {
	ch chan Event
}

// Manager owns the queue, the worker pool and the durable store.
//
// Without a retention policy, terminal jobs (and their results) are
// retained for the manager's lifetime so results stay fetchable; the
// QueueCap bound applies to pending work only. With one, the oldest
// terminal jobs are evicted as the limits are exceeded and their IDs
// answer ErrEvicted. With a CompactInterval (or at Close), the store
// is periodically rewritten to a snapshot of live state, so a
// restart's replay cost is proportional to live jobs, not history.
//
// Replay/compaction invariants: replay applies records in order and
// tolerates duplicates (later status records supersede earlier ones);
// a compaction snapshot replays to exactly the live state, so records
// appended after it — including duplicates of transitions the
// snapshot already covers — apply cleanly on top. The gate lock
// guarantees a snapshot never misses an acknowledged record: every
// state-change-plus-append pair holds it shared, Compact holds it
// exclusively across snapshot and rewrite.
type Manager struct {
	opts   ManagerOptions
	store  Store
	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup

	// gate serialises store compaction against the in-memory
	// transition + durable append pairs: those hold it shared (RLock,
	// around both halves), Compact holds it exclusively while it
	// snapshots live state and rewrites the store — so no append ever
	// races the rewrite and gets lost. Lock order: gate before mu.
	gate sync.RWMutex
	// dirty counts appends since the last compaction; a no-op
	// compaction (nothing appended) is skipped.
	dirty atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*job
	queue   jobHeap
	seq     uint64
	closing bool
	// reserved counts submissions whose durable append is still in
	// flight; they hold a queue slot so the capacity bound stays
	// exact while the fsync happens outside the manager lock.
	reserved int
	// evicted/tombs remember retention-evicted IDs (bounded by
	// maxTombstones) so they answer ErrEvicted, not ErrNotFound.
	evicted map[string]struct{}
	tombs   []tombstone
	// evictions/resultBytes/compactions back the scrape-time views of
	// metrics.go; resultBytes is also the retention byte budget's sum.
	evictions   int64
	resultBytes int64
	compactions int64

	// Campaign shard and lease state (lease.go), all guarded by mu:
	// running distributed jobs by job ID, granted leases by lease ID
	// (each shard points at its job), recently seen worker peers, the
	// bounded why-is-this-lease-dead memory, and the completed shard
	// results of every campaign, retained until its job goes terminal.
	leaseJobs     map[string]*leaseJob
	leaseIndex    map[string]*leaseShard
	leaseWorkers  map[string]time.Time
	leaseRetired  map[string]error
	leaseRetiredQ []string
	shardResults  map[string]map[int]shardResult

	engine campaign.EngineCounters
}

// NewManager builds a manager over the given store (nil selects a
// fresh MemStore), replays the store's history — finished jobs come
// back with their results, queued and interrupted-running jobs are
// re-enqueued — and starts the worker pool.
func NewManager(store Store, opts ManagerOptions) (*Manager, error) {
	if store == nil {
		store = NewMemStore()
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:         opts,
		store:        store,
		ctx:          ctx,
		cancel:       cancel,
		wake:         make(chan struct{}, opts.Workers),
		jobs:         map[string]*job{},
		evicted:      map[string]struct{}{},
		leaseJobs:    map[string]*leaseJob{},
		leaseIndex:   map[string]*leaseShard{},
		leaseWorkers: map[string]time.Time{},
		leaseRetired: map[string]error{},
		shardResults: map[string]map[int]shardResult{},
	}
	if err := m.replay(); err != nil {
		cancel()
		return nil, err
	}
	// Replayed state may exceed a (new or tightened) retention policy.
	m.applyRetention()
	if opts.Metrics != nil {
		opts.Metrics.bind(m)
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	m.signal(len(m.queue))
	return m, nil
}

// janitor is the manager's one background loop. Each tick it expires
// overdue leases (skipped while no campaign is distributed and no
// worker is remembered), applies age retention (with a MaxAge set) and
// compacts the store once CompactInterval has elapsed (skipped when
// nothing was appended since the last rewrite). The tick is the
// shortest of a quarter of the lease TTL (clamped to [10ms, 5s]), so a
// dead worker's shard re-queues promptly; a quarter of MaxAge (at
// least 10ms), so an expired job outlives its deadline by at most
// that; and the CompactInterval.
func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := min(max(m.opts.LeaseTTL/4, 10*time.Millisecond), 5*time.Second)
	if age := m.opts.Retention.MaxAge; age > 0 {
		tick = min(tick, max(age/4, 10*time.Millisecond))
	}
	ci := m.opts.CompactInterval
	if ci > 0 {
		tick = min(tick, ci)
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var sinceCompact time.Duration
	for {
		var now time.Time
		select {
		case <-m.ctx.Done():
			return
		case now = <-t.C:
		}
		m.mu.Lock()
		idle := len(m.leaseJobs) == 0 && len(m.leaseWorkers) == 0
		m.mu.Unlock()
		if !idle {
			m.expireLeases(now)
		}
		if m.opts.Retention.MaxAge > 0 {
			m.applyRetention()
		}
		if ci <= 0 {
			continue
		}
		if sinceCompact += tick; sinceCompact < ci {
			continue
		}
		sinceCompact = 0
		// An idle period appends nothing; rewriting an unchanged
		// store would be pure fsync churn.
		if m.dirty.Load() == 0 {
			continue
		}
		if err := m.Compact(); err != nil {
			m.opts.Logf("jobs: periodic compaction: %v", err)
		}
	}
}

// replay rebuilds the job table from the store. A job whose last
// recorded status is running was interrupted by a crash or kill; it
// goes back to the queue, progress reset, exactly as a graceful
// shutdown would have checkpointed it.
func (m *Manager) replay() error {
	var replayed int
	err := m.store.Replay(func(rec StoreRecord) error {
		replayed++
		switch rec.Type {
		case recordSubmit:
			if rec.ID == "" || rec.Spec == nil {
				return nil
			}
			j := &job{
				id:          rec.ID,
				spec:        *rec.Spec,
				seq:         m.seq,
				status:      StatusQueued,
				submittedAt: rec.Time,
				heapIdx:     -1,
				subs:        map[*subscriber]struct{}{},
			}
			m.seq++
			m.jobs[rec.ID] = j
		case recordStatus:
			j := m.jobs[rec.ID]
			if j == nil || !rec.Status.Valid() {
				return nil
			}
			j.status = rec.Status
			j.err = rec.Error
			if rec.Progress != nil {
				j.progress = *rec.Progress
			}
			j.result = rec.Result
			if rec.TraceID != "" {
				j.traceID = rec.TraceID
			}
			// Records written before the result_bytes field carry 0;
			// only then is the result re-measured.
			j.resultBytes = rec.ResultBytes
			if j.resultBytes == 0 {
				j.resultBytes = resultSize(rec.Result)
			}
			switch rec.Status {
			case StatusQueued:
				j.startedAt, j.finishedAt = time.Time{}, time.Time{}
			case StatusRunning:
				j.startedAt = rec.Time
			default:
				j.finishedAt = rec.Time
				// Records written before terminal records carried the
				// start time leave the running record's in place.
				if !rec.Started.IsZero() {
					j.startedAt = rec.Started
				}
			}
		case recordEvict:
			if rec.ID == "" {
				return nil
			}
			delete(m.jobs, rec.ID)
			delete(m.shardResults, rec.ID)
			m.tombstoneLocked(rec.ID, rec.Time)
		case recordLease:
			m.replayLeaseLocked(rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Re-enqueue interrupted work in original submission order.
	var resumed []*job
	for _, j := range m.jobs {
		if j.status == StatusQueued || j.status == StatusRunning {
			j.status = StatusQueued
			j.startedAt = time.Time{}
			j.progress = Progress{}
			resumed = append(resumed, j)
		}
		if j.status.Terminal() {
			m.engine.Add(j.progress.Engine)
			m.resultBytes += j.resultBytes
		}
	}
	// Shard results only matter to a job that will run (again); a
	// terminal or unknown job never re-reads them.
	for id := range m.shardResults {
		if j := m.jobs[id]; j == nil || j.status.Terminal() {
			delete(m.shardResults, id)
		}
	}
	if replayed > 0 {
		// A replayed log is worth compacting at least once even if
		// nothing new is ever appended.
		m.dirty.Store(int64(replayed))
	}
	sort.Slice(resumed, func(a, b int) bool { return resumed[a].seq < resumed[b].seq })
	for _, j := range resumed {
		heap.Push(&m.queue, j)
	}
	if len(m.jobs) > 0 {
		m.opts.Logf("jobs: replayed %d jobs (%d resumed)", len(m.jobs), len(resumed))
	}
	return nil
}

// EngineTotals reports the evaluation-engine counters accumulated
// across all jobs (finished and in progress).
func (m *Manager) EngineTotals() campaign.EngineStats {
	return m.engine.Total()
}

// signal wakes up to n idle workers.
func (m *Manager) signal(n int) {
	for i := 0; i < n; i++ {
		select {
		case m.wake <- struct{}{}:
		default:
			return
		}
	}
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Submit validates and enqueues a job, durably recording it before
// acknowledging. It fails with ErrQueueFull when the queue is at
// capacity and ErrClosed after Close.
func (m *Manager) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	if len(m.queue)+m.reserved >= m.opts.QueueCap {
		m.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	m.reserved++
	j := &job{
		id:          newID(),
		spec:        spec,
		seq:         m.seq,
		status:      StatusQueued,
		submittedAt: time.Now(),
		heapIdx:     -1,
		subs:        map[*subscriber]struct{}{},
	}
	m.seq++
	m.mu.Unlock()

	// The durable append — an fsync on the file store — runs outside
	// the manager lock so a slow disk never blocks reads or running
	// jobs' progress updates; the reservation above keeps the queue
	// bound exact meanwhile. The gate (held shared across append and
	// insert) keeps a concurrent compaction from rewriting the store
	// after the append but before the job is visible to its snapshot.
	m.gate.RLock()
	appendStart := time.Now()
	err := m.store.Append(StoreRecord{
		Type: recordSubmit, ID: j.id, Time: j.submittedAt, Spec: &spec,
	})
	m.opts.Metrics.observeAppend(time.Since(appendStart), err)
	if err == nil {
		m.dirty.Add(1)
	}

	m.mu.Lock()
	m.reserved--
	if err != nil {
		m.mu.Unlock()
		m.gate.RUnlock()
		return Job{}, fmt.Errorf("%w: %v", ErrStore, err)
	}
	// A Close that raced the append has already swept the job table;
	// the record is durable either way, so the job is inserted and
	// acknowledged — this process won't run it, a restart will.
	m.jobs[j.id] = j
	heap.Push(&m.queue, j)
	snap := j.snapshot()
	m.mu.Unlock()
	m.gate.RUnlock()
	m.opts.Metrics.observeSubmitted()
	m.signal(1)
	return snap, nil
}

// Get returns the snapshot of one job. Retention-evicted jobs answer
// ErrEvicted for as long as their tombstone is retained.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Job{}, m.missingLocked(id)
	}
	return j.snapshot(), nil
}

// missingLocked distinguishes a job that never existed from one the
// retention policy evicted.
func (m *Manager) missingLocked(id string) error {
	if _, ok := m.evicted[id]; ok {
		return ErrEvicted
	}
	return ErrNotFound
}

// List returns job snapshots in submission order, optionally filtered
// by status ("" lists everything).
func (m *Manager) List(status Status) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if status == "" || j.status == status {
			all = append(all, j)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	out := make([]Job, len(all))
	for i, j := range all {
		out[i] = j.snapshot()
	}
	return out
}

// Result returns the payload of a finished job. Non-terminal jobs fail
// with ErrNotFinished, failed/cancelled ones with ErrNoResult; the
// snapshot is returned in every case so callers can report status.
func (m *Manager) Result(id string) (*Result, Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, Job{}, m.missingLocked(id)
	}
	snap := j.snapshot()
	switch {
	case !j.status.Terminal():
		return nil, snap, ErrNotFinished
	case j.result == nil:
		return nil, snap, ErrNoResult
	}
	return j.result, snap, nil
}

// Cancel cancels a job: a queued one terminates immediately, a running
// one is cancelled cooperatively (its engine drains and the worker
// marks it cancelled). Terminal jobs fail with ErrTerminal.
func (m *Manager) Cancel(id string) (Job, error) {
	snap, evict, err := m.cancelJob(id)
	if evict {
		m.applyRetention()
	}
	return snap, err
}

// cancel holds the gate shared across the cancellation's state change
// and its store record, so a concurrent compaction snapshot never
// misses either; evict reports whether a terminal transition happened
// (the caller applies retention after the gate is released — taking
// it again while held would deadlock against a waiting Compact).
func (m *Manager) cancelJob(id string) (snap Job, evict bool, err error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		err := m.missingLocked(id)
		m.mu.Unlock()
		return Job{}, false, err
	}
	switch {
	case j.status.Terminal():
		snap := j.snapshot()
		m.mu.Unlock()
		return snap, false, ErrTerminal
	case j.status == StatusQueued:
		// A shutdown-checkpointed job is queued but no longer on the
		// heap (heapIdx -1); only remove what the heap still holds.
		if j.heapIdx >= 0 {
			heap.Remove(&m.queue, j.heapIdx)
		}
		j.userCancel = true
		rec := m.finishLocked(j, StatusCancelled, "cancelled before start", nil, 0)
		snap := j.snapshot()
		m.mu.Unlock()
		m.appendStatus(rec)
		m.opts.Metrics.observeFinished(StatusCancelled, 0)
		return snap, true, nil
	default: // running
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
		// Retire the job's leases now, not when its run wakes up: a
		// worker report that arrives first would otherwise count as a
		// shard failure and re-queue a shard of a cancelled job.
		if lj := m.leaseJobs[id]; lj != nil {
			m.dropLeaseJobLocked(lj)
		}
		// Write-ahead cancellation intent: if the process dies during
		// the cooperative drain, replay must not resurrect the job.
		// Appended while still holding the manager lock — cancels are
		// rare, and the lock guarantees this record precedes the
		// worker's terminal one (the worker takes the same lock
		// before recording its outcome), so a run that managed to
		// finish before the cancellation took effect replays as done.
		m.appendStatus(StoreRecord{
			Type: recordStatus, ID: j.id, Time: time.Now(),
			Status: StatusCancelled, Error: "cancellation requested",
		})
		snap := j.snapshot()
		m.mu.Unlock()
		return snap, false, nil
	}
}

// Subscribe attaches an event stream to a job. The returned snapshot
// is the state at subscription time; the channel delivers monotone
// progress snapshots and closes after the terminal transition (or
// immediately for an already-terminal job). Slow consumers skip
// intermediate events instead of blocking the manager. The cancel
// function detaches the stream; it is safe to call more than once.
func (m *Manager) Subscribe(id string) (Job, <-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Job{}, nil, nil, m.missingLocked(id)
	}
	snap := j.snapshot()
	ch := make(chan Event, 16)
	if j.status.Terminal() || m.closing {
		close(ch)
		return snap, ch, func() {}, nil
	}
	sub := &subscriber{ch: ch}
	j.subs[sub] = struct{}{}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := j.subs[sub]; ok {
			delete(j.subs, sub)
			close(sub.ch)
		}
	}
	return snap, ch, cancel, nil
}

// publishLocked fans one event out to the job's subscribers; full
// buffers drop the event (snapshots supersede each other).
func (m *Manager) publishLocked(j *job, typ string) {
	if len(j.subs) == 0 {
		return
	}
	ev := Event{Type: typ, Job: j.snapshot()}
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default:
		}
	}
}

// closeSubsLocked ends every stream of a job.
func (m *Manager) closeSubsLocked(j *job) {
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
}

// appendStatus best-effort records a transition or eviction; a
// failing store is logged, not fatal — the in-memory state stays
// authoritative.
func (m *Manager) appendStatus(rec StoreRecord) {
	start := time.Now()
	err := m.store.Append(rec)
	m.opts.Metrics.observeAppend(time.Since(start), err)
	if err != nil {
		m.opts.Logf("jobs: store append (%s %s %s): %v", rec.Type, rec.ID, rec.Status, err)
		return
	}
	m.dirty.Add(1)
}

// finishLocked moves a job to a terminal state and ends its event
// streams. resBytes is the encoded size of res, precomputed by the
// caller so large results are never marshalled under the manager
// lock. It returns the store record for the transition; the caller
// appends it after releasing the manager lock, so the file store's
// fsync never stalls reads or other jobs' progress updates. Per-job
// record order still holds: each job has a single writer (its worker,
// or Cancel for a job no worker can reach).
func (m *Manager) finishLocked(j *job, st Status, errMsg string, res *Result, resBytes int64) StoreRecord {
	j.status = st
	j.err = errMsg
	j.result = res
	j.resultBytes = resBytes
	m.resultBytes += resBytes
	j.finishedAt = time.Now()
	j.cancel = nil
	prog := j.progress
	m.publishLocked(j, "done")
	m.closeSubsLocked(j)
	return StoreRecord{
		Type: recordStatus, ID: j.id, Time: j.finishedAt,
		Status: st, Error: errMsg, Progress: &prog, Result: res,
		ResultBytes: resBytes, TraceID: j.traceID, Started: j.startedAt,
	}
}

// resultSize is the encoded footprint a result is charged at against
// RetentionPolicy.MaxResultBytes.
func resultSize(res *Result) int64 {
	if res == nil {
		return 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// worker executes queued jobs until the manager shuts down.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.wake:
		}
		for {
			j, ctx := m.startNext()
			if j == nil {
				break
			}
			m.execute(ctx, j)
		}
	}
}

// startNext pops the highest-priority queued job and transitions it to
// running; nil when the queue is empty or the manager is closing.
func (m *Manager) startNext() (*job, context.Context) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	m.mu.Lock()
	if m.closing || len(m.queue) == 0 {
		m.mu.Unlock()
		return nil, nil
	}
	j := heap.Pop(&m.queue).(*job)
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	j.status = StatusRunning
	j.startedAt = time.Now()
	delay := j.startedAt.Sub(j.submittedAt)
	rec := StoreRecord{
		Type: recordStatus, ID: j.id, Time: j.startedAt, Status: StatusRunning,
	}
	m.publishLocked(j, "update")
	m.mu.Unlock()
	m.opts.Metrics.observeStartDelay(delay)
	m.appendStatus(rec)
	return j, ctx
}

// execute runs one job to a terminal state — or, when the manager is
// shutting down, checkpoints it back to queued so a restarted manager
// resumes it from the store.
func (m *Manager) execute(ctx context.Context, j *job) {
	// Span the lifecycle: "job" covers submission to terminal state,
	// "job.queued" the wait for a worker, "job.run" the execution the
	// campaign/optimiser layers hang their child spans off. A spec
	// carrying a TraceParent continues the submitter's trace (across
	// the async boundary, and — since specs are persisted — across a
	// manager restart); otherwise the job roots its own trace.
	var jobSpan, runSpan *obs.Span
	if tr := m.opts.Tracer; tr != nil {
		parent, _ := obs.ParseTraceparent(j.spec.TraceParent)
		ctx, jobSpan = tr.StartRoot(ctx, "job", parent)
		jobSpan.SetStart(j.submittedAt)
		jobSpan.SetString("job_id", j.id)
		jobSpan.SetString("job_kind", string(j.spec.Kind))
		queued := jobSpan.StartChild("job.queued")
		queued.SetStart(j.submittedAt)
		queued.End()
		runSpan = jobSpan.StartChild("job.run")
		ctx = obs.ContextWithSpan(ctx, runSpan)
		m.mu.Lock()
		j.traceID = jobSpan.TraceID()
		m.publishLocked(j, "update")
		m.mu.Unlock()
	}
	// CPU profiles (including default.pgo regeneration) attribute
	// samples per workload via the pprof label.
	var res *Result
	var err error
	pprof.Do(ctx, pprof.Labels("job_kind", string(j.spec.Kind)), func(ctx context.Context) {
		res, err = m.run(ctx, j)
	})
	runSpan.Fail(err)
	runSpan.End()
	// Encoded result size, for the retention byte budget; computed
	// before any lock is taken (campaign results can be large).
	resBytes := resultSize(res)
	// The gate pairs the terminal (or checkpoint) transition with its
	// store record against concurrent compaction snapshots.
	m.gate.RLock()
	m.mu.Lock()
	if cancel := j.cancel; cancel != nil {
		defer cancel() // release the context's resources
	}
	started := j.startedAt
	var rec StoreRecord
	switch {
	case err == nil:
		rec = m.finishLocked(j, StatusDone, "", res, resBytes)
	case j.userCancel:
		rec = m.finishLocked(j, StatusCancelled, err.Error(), nil, 0)
	case m.closing && errors.Is(err, context.Canceled):
		// Shutdown checkpoint: the run was interrupted by Close (a
		// genuine failure that merely coincides with shutdown is not
		// a cancellation and still lands in the failed branch). Back
		// to queued, progress reset; the store record is what a
		// restarted manager resumes from. The reset is not published:
		// streams promise monotone counters, and these subscribers
		// are ending with the manager anyway.
		j.status = StatusQueued
		j.startedAt = time.Time{}
		j.progress = Progress{}
		j.cancel = nil
		// The re-run under a restarted manager roots a fresh trace.
		j.traceID = ""
		rec = StoreRecord{
			Type: recordStatus, ID: j.id, Time: time.Now(),
			Status: StatusQueued, Progress: &Progress{},
		}
		m.closeSubsLocked(j)
	default:
		rec = m.finishLocked(j, StatusFailed, err.Error(), nil, 0)
	}
	terminal := j.status.Terminal()
	final := j.status
	var runDur time.Duration
	if terminal {
		runDur = j.finishedAt.Sub(started)
		// The terminal record carries the result; retained shard
		// results would only duplicate it (a checkpointed job keeps
		// them — the re-run adopts the finished shards).
		delete(m.shardResults, j.id)
	}
	m.mu.Unlock()
	appendName := "store.append"
	if !terminal {
		appendName = "job.checkpoint"
	}
	aspan := jobSpan.StartChild(appendName)
	m.appendStatus(rec)
	aspan.End()
	if terminal && final != StatusDone && rec.Error != "" {
		jobSpan.Fail(errors.New(rec.Error))
	}
	jobSpan.End()
	m.gate.RUnlock()
	if terminal {
		m.opts.Metrics.observeFinished(final, runDur)
		m.applyRetention()
	}
}

// updateProgress mutates a job's progress under the lock and streams
// the new snapshot.
func (m *Manager) updateProgress(j *job, mut func(p *Progress)) {
	m.mu.Lock()
	mut(&j.progress)
	m.publishLocked(j, "update")
	m.mu.Unlock()
}

// Accepting reports whether the manager still accepts submissions
// (false once Close has begun). Readiness probes use it.
func (m *Manager) Accepting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closing
}

// QueueDepth returns the current queue occupancy (queued plus
// in-flight submissions) and the capacity bound at which submissions
// shed with ErrQueueFull.
func (m *Manager) QueueDepth() (depth, capacity int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) + m.reserved, m.opts.QueueCap
}

// Compact rewrites the store into a snapshot of live state: one
// submit record per retained job, a status record where the job has
// progressed beyond queued, and the retained eviction tombstones.
// Safe to call at any time; the manager also calls it on the janitor
// tick (with CompactInterval set) and once during Close.
func (m *Manager) Compact() error {
	// Exclusive gate: no transition+append pair is in flight, so the
	// snapshot below covers every acknowledged record and nothing
	// appended before the rewrite can be lost by it.
	m.gate.Lock()
	defer m.gate.Unlock()
	m.mu.Lock()
	recs := m.snapshotLocked()
	m.mu.Unlock()
	_, cspan := m.opts.Tracer.StartRoot(context.Background(), "store.compact", obs.SpanContext{})
	cspan.SetInt("records", int64(len(recs)))
	compactStart := time.Now()
	if err := m.store.Compact(recs); err != nil {
		cspan.Fail(err)
		cspan.End()
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	cspan.End()
	m.opts.Metrics.observeCompact(time.Since(compactStart))
	m.dirty.Store(0)
	m.mu.Lock()
	m.compactions++
	m.mu.Unlock()
	return nil
}

// snapshotLocked serialises live state as store records: tombstones
// first, then per job (in submission order) its submit record and,
// beyond queued, one status record. Replaying the snapshot
// reconstructs exactly this state.
func (m *Manager) snapshotLocked() []StoreRecord {
	recs := make([]StoreRecord, 0, len(m.tombs)+2*len(m.jobs))
	for _, t := range m.tombs {
		recs = append(recs, StoreRecord{Type: recordEvict, ID: t.id, Time: t.at})
	}
	ordered := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	for _, j := range ordered {
		recs = append(recs, StoreRecord{
			Type: recordSubmit, ID: j.id, Time: j.submittedAt, Spec: &j.spec,
		})
		switch {
		case j.status.Terminal():
			prog := j.progress
			recs = append(recs, StoreRecord{
				Type: recordStatus, ID: j.id, Time: j.finishedAt,
				Status: j.status, Error: j.err, Progress: &prog, Result: j.result,
				ResultBytes: j.resultBytes, TraceID: j.traceID, Started: j.startedAt,
			})
		case j.status == StatusRunning:
			// Replays as queued with progress reset — the same
			// contract as a crash-interrupted run.
			recs = append(recs, StoreRecord{
				Type: recordStatus, ID: j.id, Time: j.startedAt, Status: StatusRunning,
			})
		}
		// Completed shards of a live campaign persist through
		// compaction, so a restart re-runs only the missing ones.
		recs = append(recs, m.leaseSnapshotLocked(j, time.Now())...)
	}
	return recs
}

// Close shuts the manager down: submissions are rejected, running jobs
// are cancelled and checkpointed back to queued in the store (so a
// restart resumes them), worker exit is awaited up to ctx, the store
// is compacted (when the workers drained cleanly —
// the next startup replays live state, not history), and the store is
// closed. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	m.mu.Unlock()
	m.cancel()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	m.mu.Lock()
	for _, j := range m.jobs {
		m.closeSubsLocked(j)
	}
	m.mu.Unlock()
	// Shutdown-triggered compaction: only after a clean drain (a
	// timed-out Close may still have workers appending) and only when
	// something was appended since the last rewrite.
	if err == nil && m.dirty.Load() > 0 {
		if cerr := m.Compact(); cerr != nil {
			m.opts.Logf("jobs: shutdown compaction: %v", cerr)
		}
	}
	if cerr := m.store.Close(); err == nil {
		err = cerr
	}
	return err
}
