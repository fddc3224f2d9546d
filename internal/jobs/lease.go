package jobs

// Campaign execution: every campaign runs on one shard table, and
// distributed campaigns hand its shards out as leases.
//
// A campaign's population is split into contiguous shards
// (campaign.ShardRanges, ShardSystems or LeaseSystems systems each).
// Every finished shard goes through completeShard: it is appended (and
// fsynced) as a "complete" lease record, so it survives a crash or a
// shutdown and a restarted job re-runs only the missing shards. The
// per-shard records are merged deterministically
// (campaign.MergeShardRecords), so the result is bit-identical to a
// serial run for any shard size or fleet size.
//
// Distribute picks only who runs the pending shards: the job goroutine,
// as one campaign call, or worker peers that pull them with
// ClaimLease, heartbeat them with RenewLease and return records with
// CompleteLease. A lease is the ownership token of that remote
// transport, for a worker that can die apart from the coordinator;
// local campaigns take none. Expire and fail events are appended
// best-effort as evidence of a fault and ignored by replay; grants are
// not stored (GET /v1/leases and the grant counter show them).
//
// Worker death is survived by lease expiry: the manager's janitor
// loop (manager.go) re-queues any granted shard whose lease outlived
// its TTL without a renewal, and the retired lease ID answers
// ErrLeaseStale from then on. Re-queueing is deterministic — the shard
// returns to pending with its range unchanged, so a re-grant computes
// the identical records.
//
// Claims are FIFO: whichever worker asks gets the first pending shard
// in (job submission order, shard index) order. Every system's records
// depend on that system alone, so placement never changes results.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
)

// LeaseEvent is the payload of a "lease" store record: one event of a
// campaign shard's lifecycle. Only "complete" events carry records
// and matter to replay; "expire" and "fail" record lease faults. A
// shard completed locally carries no lease ID, worker or attempt.
type LeaseEvent struct {
	// Event is "complete", "expire" or "fail"; stores written by older
	// coordinators also hold "grant" events, which replay ignores.
	Event   string `json:"event"`
	LeaseID string `json:"lease_id,omitempty"`
	// Shard is the shard's index; Lo/Hi its population range.
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Worker is the peer holding (or losing) the lease.
	Worker string `json:"worker,omitempty"`
	// Attempt counts grants of this shard, starting at 1.
	Attempt int `json:"attempt,omitempty"`
	// Error is the worker-reported failure of a "fail" event.
	Error string `json:"error,omitempty"`
	// Records are the shard's results ("complete" only), already
	// rebased to global population indices.
	Records []campaign.Record `json:"records,omitempty"`
}

const (
	leaseEventComplete = "complete"
	leaseEventExpire   = "expire"
	leaseEventFail     = "fail"
)

// Lease states, internal (the snapshot reports them as strings).
type leaseState int

const (
	leasePending leaseState = iota
	leaseGranted
	leaseDone
)

func (s leaseState) String() string {
	switch s {
	case leaseGranted:
		return "granted"
	case leaseDone:
		return "done"
	}
	return "pending"
}

// leaseShard is one shard of a campaign; guarded by the manager mutex
// except the immutable lj/idx/lo/hi. The lease fields stay zero for a
// local campaign.
type leaseShard struct {
	lj     *leaseJob
	idx    int
	lo, hi int

	state   leaseState
	leaseID string
	worker  string
	attempt int
	expiry  time.Time
}

// leaseJob tracks one running campaign's shard table; guarded by the
// manager mutex except the immutable j/c/traceparent/shards slice and
// the done channel (closed exactly once, under the mutex). Only
// distributed campaigns register theirs in Manager.leaseJobs.
type leaseJob struct {
	j *job
	// c is the compiled campaign: the local run and every grant slice
	// its population, and CompleteLease checks records against it.
	c *compiled
	// traceparent continues the job trace on the worker peers.
	traceparent string
	shards      []*leaseShard
	remaining   int
	done        chan struct{}
}

// shardResult is a completed shard's records, kept until the job goes
// terminal so a restart (or a late merge) can reuse them.
type shardResult struct {
	lo, hi  int
	records []campaign.Record
}

// ShardGrant is the claim response handed to a worker: the lease
// identity plus everything needed to run the shard standalone.
type ShardGrant struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	Shard   int    `json:"shard"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Attempt int    `json:"attempt"`
	// TTLMs is the lease TTL; the worker renews well within it.
	TTLMs int64 `json:"ttl_ms"`
	// TraceParent continues the coordinator's job trace on the worker.
	TraceParent string `json:"trace_parent,omitempty"`
	// Optimiser selection and knobs, copied from the job spec.
	Algorithms    []string `json:"algorithms,omitempty"`
	SAWarmFromOBC bool     `json:"sa_warm_from_obc,omitempty"`
	Tuning        *Tuning  `json:"tuning,omitempty"`
	// Exactly one of Specs (synthesised population slice) or Systems
	// (uploaded systems slice) is set.
	Specs   []synth.Params    `json:"specs,omitempty"`
	Systems []json.RawMessage `json:"systems,omitempty"`
}

// Lease is the externally visible snapshot of one shard lease.
type Lease struct {
	ID        string    `json:"id,omitempty"`
	JobID     string    `json:"job_id"`
	Shard     int       `json:"shard"`
	Lo        int       `json:"lo"`
	Hi        int       `json:"hi"`
	State     string    `json:"state"`
	Worker    string    `json:"worker,omitempty"`
	Attempt   int       `json:"attempt,omitempty"`
	ExpiresAt time.Time `json:"expires_at,omitzero"`
}

// LeaseWorkerInfo is one registered worker peer.
type LeaseWorkerInfo struct {
	ID       string    `json:"id"`
	LastSeen time.Time `json:"last_seen"`
}

// LeaseList is the GET /v1/leases payload: every shard of every
// running distributed job plus the recently seen workers.
type LeaseList struct {
	Leases  []Lease           `json:"leases"`
	Workers []LeaseWorkerInfo `json:"workers"`
}

// maxRetiredLeases bounds the retired-lease memory (lease ID → why it
// is dead); beyond it the oldest entries fall back to ErrLeaseNotFound.
const maxRetiredLeases = 4096

func newLeaseID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: lease id entropy: %v", err))
	}
	return "l-" + hex.EncodeToString(b[:])
}

// runCampaign executes a campaign over its shard table. Shards an
// earlier run of the job completed durably (replayed lease records)
// are adopted, not re-run; the pending ones run in this goroutine or,
// with Distribute, as leases drained by the worker fleet. Either way
// each finished shard goes through completeShard, and the result is
// the deterministic merge of the per-shard records.
func (m *Manager) runCampaign(ctx context.Context, j *job, c *compiled) (*Result, error) {
	total := len(c.specs) + len(c.systems)
	size := j.spec.ShardSystems
	if size <= 0 {
		size = m.opts.LeaseSystems
	}
	lj := &leaseJob{j: j, c: c, done: make(chan struct{})}
	for i, r := range campaign.ShardRanges(total, size) {
		lj.shards = append(lj.shards, &leaseShard{lj: lj, idx: i, lo: r.Lo, hi: r.Hi})
	}

	m.mu.Lock()
	j.progress.Total = total
	replayed := m.shardResults[j.id]
	if replayed == nil {
		replayed = map[int]shardResult{}
		m.shardResults[j.id] = replayed
	}
	// Adopt shards a previous run of this job completed durably. A
	// replayed result only counts when its geometry matches the
	// current split (a changed ShardSystems invalidates it).
	for _, sh := range lj.shards {
		if sr, ok := replayed[sh.idx]; ok && sr.lo == sh.lo && sr.hi == sh.hi && len(sr.records) == sh.hi-sh.lo {
			sh.state = leaseDone
			for _, rec := range sr.records {
				m.engine.Add(rec.Engine)
			}
			applyShardProgressLocked(j, sr.records)
			continue
		}
		delete(replayed, sh.idx)
		lj.remaining++
	}
	for idx := range replayed {
		if idx < 0 || idx >= len(lj.shards) {
			delete(replayed, idx)
		}
	}
	distribute := j.spec.Distribute && lj.remaining > 0
	if distribute {
		lj.traceparent = obs.SpanFromContext(ctx).Traceparent()
		m.leaseJobs[j.id] = lj
	}
	m.publishLocked(j, "update")
	m.mu.Unlock()

	switch {
	case distribute:
		select {
		case <-lj.done:
		case <-ctx.Done():
		}
		// The job is leaving (done, cancelled or shutting down).
		m.mu.Lock()
		m.dropLeaseJobLocked(lj)
		m.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	case lj.remaining > 0:
		if err := m.runShardsLocal(ctx, lj); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	shardRecs := make([][]campaign.Record, 0, len(lj.shards))
	for _, sh := range lj.shards {
		sr, ok := replayed[sh.idx]
		if !ok {
			return nil, fmt.Errorf("jobs: campaign lost shard %d", sh.idx)
		}
		shardRecs = append(shardRecs, sr.records)
	}
	merged := campaign.MergeShardRecords(shardRecs)
	// The live Best follows shard completion order; settle the whole
	// progress block deterministically from the merged stream, exactly
	// as a serial run would have accumulated it.
	j.progress = Progress{Total: total}
	applyShardProgressLocked(j, merged)
	m.publishLocked(j, "update")
	return &Result{Records: merged}, nil
}

// runShardsLocal runs lj's pending shards in the job goroutine as one
// campaign call over their concatenated population, with the options
// a worker peer uses. Records arrive in index order, so shards
// complete in order: each is handed to completeShard with its last
// record.
func (m *Manager) runShardsLocal(ctx context.Context, lj *leaseJob) error {
	c := lj.c
	var (
		todo    []*leaseShard
		specs   []synth.Params
		systems []*model.System
	)
	for _, sh := range lj.shards {
		if sh.state == leaseDone {
			continue
		}
		todo = append(todo, sh)
		if len(c.systems) > 0 {
			systems = append(systems, c.systems[sh.lo:sh.hi]...)
		} else {
			specs = append(specs, c.specs[sh.lo:sh.hi]...)
		}
	}
	copts := campaign.Options{
		Workers:       m.evalWorkers(lj.j),
		Algorithms:    c.algorithms,
		SAWarmFromOBC: lj.j.spec.SAWarmFromOBC,
	}
	var recs []campaign.Record
	emit := func(rec campaign.Record) error {
		// A record finished after cancellation may be cut short; it
		// must never become durable.
		if err := ctx.Err(); err != nil {
			return err
		}
		recs = append(recs, rec)
		sh := todo[0]
		if len(recs) < sh.hi-sh.lo {
			return nil
		}
		m.gate.RLock()
		err := m.completeShard(sh, recs, LeaseEvent{}, nil)
		m.gate.RUnlock()
		todo, recs = todo[1:], recs[:0]
		return err
	}
	if len(systems) > 0 {
		return campaign.RunSystems(ctx, systems, c.opts, copts, emit)
	}
	return campaign.Run(ctx, specs, c.opts, copts, emit)
}

// applyShardProgressLocked folds one completed shard's records into
// the job's live progress.
func applyShardProgressLocked(j *job, recs []campaign.Record) {
	for _, rec := range recs {
		j.progress.Completed++
		if rec.Schedulable {
			j.progress.Schedulable++
		}
		if rec.Best != "" && (j.progress.Best == "" || rec.BestCost < j.progress.BestCost) {
			j.progress.Best = rec.Name
			j.progress.BestCost = rec.BestCost
		}
		j.progress.Engine.Add(rec.Engine)
	}
}

// ClaimLease registers workerID as a live peer and grants it the first
// pending shard in (job submission order, shard index) order. A nil
// grant with nil error means no work is available.
func (m *Manager) ClaimLease(workerID string) (*ShardGrant, error) {
	now := time.Now()
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.leaseWorkers[workerID] = now
	var pick *leaseShard
scan:
	for _, lj := range m.leaseJobsLocked() {
		for _, sh := range lj.shards {
			if sh.state == leasePending {
				pick = sh
				break scan
			}
		}
	}
	if pick == nil {
		m.mu.Unlock()
		return nil, nil
	}
	pick.state = leaseGranted
	pick.attempt++
	pick.worker = workerID
	pick.leaseID = newLeaseID()
	pick.expiry = now.Add(m.opts.LeaseTTL)
	m.leaseIndex[pick.leaseID] = pick
	g := pick.lj.grantFor(pick, m.opts.LeaseTTL)
	m.mu.Unlock()
	m.opts.Metrics.observeLeaseGranted()
	return g, nil
}

// leaseJobsLocked lists the running distributed jobs in submission
// order.
func (m *Manager) leaseJobsLocked() []*leaseJob {
	ljs := make([]*leaseJob, 0, len(m.leaseJobs))
	for _, lj := range m.leaseJobs {
		ljs = append(ljs, lj)
	}
	sort.Slice(ljs, func(a, b int) bool { return ljs[a].j.seq < ljs[b].j.seq })
	return ljs
}

// grantFor slices the job's population for one shard.
func (lj *leaseJob) grantFor(sh *leaseShard, ttl time.Duration) *ShardGrant {
	spec := &lj.j.spec
	g := &ShardGrant{
		LeaseID: sh.leaseID, JobID: lj.j.id,
		Shard: sh.idx, Lo: sh.lo, Hi: sh.hi, Attempt: sh.attempt,
		TTLMs:         ttl.Milliseconds(),
		TraceParent:   lj.traceparent,
		Algorithms:    lj.c.algorithms,
		SAWarmFromOBC: spec.SAWarmFromOBC,
		Tuning:        spec.Tuning,
	}
	if len(lj.c.systems) > 0 {
		// Ship the uploaded systems as their original raw JSON, so the
		// worker parses exactly what the submitter sent.
		g.Systems = spec.Population.Systems[sh.lo:sh.hi]
	} else {
		g.Specs = lj.c.specs[sh.lo:sh.hi]
	}
	return g
}

// checkRecords rejects a worker's shard records unless there is one
// per leased system and each describes the system at its position:
// the same node count and seed for a synthesised population, the same
// name and node count for an uploaded one.
func (lj *leaseJob) checkRecords(sh *leaseShard, records []campaign.Record) error {
	if len(records) != sh.hi-sh.lo {
		return fmt.Errorf("%w: %d records for %d systems", ErrLeasePayload, len(records), sh.hi-sh.lo)
	}
	for i, rec := range records {
		if len(lj.c.systems) > 0 {
			sys := lj.c.systems[sh.lo+i]
			if rec.Name != sys.Name || rec.Nodes != sys.Platform.NumNodes {
				return fmt.Errorf("%w: record %d is %q with %d nodes, want %q with %d",
					ErrLeasePayload, i, rec.Name, rec.Nodes, sys.Name, sys.Platform.NumNodes)
			}
		} else if sp := lj.c.specs[sh.lo+i]; rec.Nodes != sp.Nodes || rec.Seed != sp.Seed {
			return fmt.Errorf("%w: record %d has %d nodes and seed %d, want %d and %d",
				ErrLeasePayload, i, rec.Nodes, rec.Seed, sp.Nodes, sp.Seed)
		}
	}
	return nil
}

// RenewLease extends a held lease's expiry and returns the new
// deadline. Stale or retired leases fail with the error the shard was
// retired under.
func (m *Manager) RenewLease(leaseID, workerID string) (time.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return time.Time{}, ErrClosed
	}
	sh := m.leaseIndex[leaseID]
	if sh == nil {
		return time.Time{}, m.leaseErrLocked(leaseID)
	}
	if sh.worker != workerID {
		return time.Time{}, ErrLeaseStale
	}
	now := time.Now()
	m.leaseWorkers[workerID] = now
	sh.expiry = now.Add(m.opts.LeaseTTL)
	return sh.expiry, nil
}

// CompleteLease finishes a shard: a failure report re-queues it for
// another attempt; records that match the leased systems go through
// completeShard, so they are durable before the worker is
// acknowledged. Completing the last shard wakes the waiting job.
func (m *Manager) CompleteLease(leaseID, workerID string, records []campaign.Record, workerErr string) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	now := time.Now()
	m.mu.Lock()
	sh := m.leaseIndex[leaseID]
	if sh == nil {
		err := m.leaseErrLocked(leaseID)
		m.mu.Unlock()
		return err
	}
	if sh.worker != workerID {
		m.mu.Unlock()
		return ErrLeaseStale
	}
	lj := sh.lj
	m.leaseWorkers[workerID] = now
	if workerErr != "" {
		// Worker-reported failure: back to pending for another worker
		// (or another attempt by the same one).
		rec := StoreRecord{Type: recordLease, ID: lj.j.id, Time: now, Lease: &LeaseEvent{
			Event: leaseEventFail, LeaseID: leaseID,
			Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
			Worker: workerID, Attempt: sh.attempt, Error: workerErr,
		}}
		m.releaseShardLocked(sh, ErrLeaseStale)
		m.mu.Unlock()
		m.appendStatus(rec)
		m.opts.Metrics.observeLeaseFailed()
		m.opts.Logf("jobs: shard %d of %s failed on %s (re-queued): %s", sh.idx, lj.j.id, workerID, workerErr)
		return nil
	}
	if err := lj.checkRecords(sh, records); err != nil {
		m.mu.Unlock()
		return err
	}
	ev := LeaseEvent{LeaseID: leaseID, Worker: workerID, Attempt: sh.attempt}
	m.mu.Unlock()

	err := m.completeShard(sh, records, ev, func() error {
		// Revalidate: the lease may have expired during the fsync. The
		// durable record is harmless then — replay keeps the first
		// complete per shard, and a re-granted attempt recomputes the
		// same deterministic records anyway.
		if m.leaseIndex[leaseID] != sh || sh.state != leaseGranted || sh.worker != workerID {
			if err := m.leaseErrLocked(leaseID); !errors.Is(err, ErrLeaseNotFound) {
				return err
			}
			return ErrLeaseStale
		}
		m.retireLeaseLocked(leaseID, ErrLeaseStale)
		delete(m.leaseIndex, leaseID)
		sh.worker, sh.leaseID = "", ""
		return nil
	})
	if err != nil {
		return err
	}
	m.opts.Metrics.observeLeaseCompleted()
	return nil
}

// completeShard folds one finished shard into its campaign; shards run
// locally and shards reported by a lease worker both come through
// here. It rebases the records onto global population indices, drops
// the optimiser results their runs carry (withoutResults) and appends
// them durably as a "complete" lease record (ev carries the
// lease identity, if any). Then, under the manager lock and once
// commit (when non-nil) accepts, it keeps them for the merge, counts
// their engine work, advances progress and wakes the job on its last
// shard. The caller holds m.gate for reading, so the append and the
// state change are one step to a concurrent compaction.
func (m *Manager) completeShard(sh *leaseShard, records []campaign.Record, ev LeaseEvent, commit func() error) error {
	lj := sh.lj
	rebased := make([]campaign.Record, len(records))
	for i, rec := range records {
		rec.Index = sh.lo + i
		rec.Runs = withoutResults(rec.Runs)
		rebased[i] = rec
	}
	ev.Event, ev.Shard, ev.Lo, ev.Hi, ev.Records = leaseEventComplete, sh.idx, sh.lo, sh.hi, rebased
	appendStart := time.Now()
	err := m.store.Append(StoreRecord{Type: recordLease, ID: lj.j.id, Time: appendStart, Lease: &ev})
	m.opts.Metrics.observeAppend(time.Since(appendStart), err)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.dirty.Add(1)

	m.mu.Lock()
	defer m.mu.Unlock()
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	sh.state = leaseDone
	m.shardResults[lj.j.id][sh.idx] = shardResult{lo: sh.lo, hi: sh.hi, records: rebased}
	for _, rec := range rebased {
		m.engine.Add(rec.Engine)
	}
	applyShardProgressLocked(lj.j, rebased)
	m.publishLocked(lj.j, "update")
	lj.remaining--
	if lj.remaining == 0 {
		close(lj.done)
	}
	return nil
}

// Leases snapshots every shard of every running distributed job plus
// the recently seen worker peers, for GET /v1/leases and tests.
func (m *Manager) Leases() LeaseList {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := LeaseList{Leases: []Lease{}, Workers: []LeaseWorkerInfo{}}
	for _, lj := range m.leaseJobsLocked() {
		for _, sh := range lj.shards {
			l := Lease{
				ID: sh.leaseID, JobID: lj.j.id,
				Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
				State: sh.state.String(), Worker: sh.worker, Attempt: sh.attempt,
			}
			if sh.state == leaseGranted {
				l.ExpiresAt = sh.expiry
			}
			list.Leases = append(list.Leases, l)
		}
	}
	for id, seen := range m.leaseWorkers {
		list.Workers = append(list.Workers, LeaseWorkerInfo{ID: id, LastSeen: seen})
	}
	sort.Slice(list.Workers, func(a, b int) bool { return list.Workers[a].ID < list.Workers[b].ID })
	return list
}

// leaseErrLocked distinguishes a lease that never existed from one
// that was retired (and why).
func (m *Manager) leaseErrLocked(leaseID string) error {
	if err, ok := m.leaseRetired[leaseID]; ok {
		return err
	}
	return ErrLeaseNotFound
}

// retireLeaseLocked remembers why a lease ID is dead, bounded FIFO.
func (m *Manager) retireLeaseLocked(leaseID string, reason error) {
	if _, ok := m.leaseRetired[leaseID]; ok {
		return
	}
	m.leaseRetired[leaseID] = reason
	m.leaseRetiredQ = append(m.leaseRetiredQ, leaseID)
	if len(m.leaseRetiredQ) > maxRetiredLeases {
		delete(m.leaseRetired, m.leaseRetiredQ[0])
		m.leaseRetiredQ = m.leaseRetiredQ[1:]
	}
}

// dropLeaseJobLocked unpublishes a distributed job's shard table: none
// of its shards is granted again, and its outstanding leases answer
// ErrLeaseGone (410) from now on.
func (m *Manager) dropLeaseJobLocked(lj *leaseJob) {
	delete(m.leaseJobs, lj.j.id)
	for _, sh := range lj.shards {
		if sh.state == leaseGranted {
			m.releaseShardLocked(sh, ErrLeaseGone)
		}
	}
}

// releaseShardLocked retires a shard's current lease (if any) and
// returns the shard to pending — the deterministic re-queue: identity
// unchanged, only the attempt counter advances on the next grant.
func (m *Manager) releaseShardLocked(sh *leaseShard, reason error) {
	if sh.leaseID != "" {
		m.retireLeaseLocked(sh.leaseID, reason)
		delete(m.leaseIndex, sh.leaseID)
	}
	sh.state = leasePending
	sh.worker, sh.leaseID = "", ""
	sh.expiry = time.Time{}
}

// expireLeases re-queues every granted shard whose lease outlived its
// TTL and forgets workers silent for several TTLs.
func (m *Manager) expireLeases(now time.Time) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	var recs []StoreRecord
	m.mu.Lock()
	for _, lj := range m.leaseJobs {
		for _, sh := range lj.shards {
			if sh.state != leaseGranted || now.Before(sh.expiry) {
				continue
			}
			recs = append(recs, StoreRecord{Type: recordLease, ID: lj.j.id, Time: now, Lease: &LeaseEvent{
				Event: leaseEventExpire, LeaseID: sh.leaseID,
				Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
				Worker: sh.worker, Attempt: sh.attempt,
			}})
			m.opts.Logf("jobs: lease %s expired (job %s shard %d worker %s); shard re-queued",
				sh.leaseID, lj.j.id, sh.idx, sh.worker)
			m.releaseShardLocked(sh, ErrLeaseStale)
		}
	}
	for id, seen := range m.leaseWorkers {
		if now.Sub(seen) > 3*m.opts.LeaseTTL {
			delete(m.leaseWorkers, id)
		}
	}
	m.mu.Unlock()
	for _, rec := range recs {
		m.appendStatus(rec)
		m.opts.Metrics.observeLeaseExpired()
	}
}

// replayLeaseLocked applies one lease record during store replay. Only
// well-formed "complete" events for known jobs count, and the first
// complete per (job, shard) is sticky — late completes, out-of-order
// expires and the grant events older stores hold can never resurrect
// or overwrite a completed shard.
func (m *Manager) replayLeaseLocked(rec StoreRecord) {
	ev := rec.Lease
	if rec.ID == "" || ev == nil || ev.Event != leaseEventComplete {
		return
	}
	if ev.Shard < 0 || ev.Lo < 0 || ev.Hi < ev.Lo || len(ev.Records) != ev.Hi-ev.Lo {
		return
	}
	if m.jobs[rec.ID] == nil {
		return
	}
	byShard := m.shardResults[rec.ID]
	if byShard == nil {
		byShard = map[int]shardResult{}
		m.shardResults[rec.ID] = byShard
	}
	if _, done := byShard[ev.Shard]; done {
		return
	}
	recs := append([]campaign.Record(nil), ev.Records...)
	for i := range recs {
		recs[i].Index = ev.Lo + i
	}
	byShard[ev.Shard] = shardResult{lo: ev.Lo, hi: ev.Hi, records: recs}
}

// leaseSnapshotLocked serialises the completed shards of one
// non-terminal campaign as lease complete records, so compaction preserves
// them; terminal jobs carry their result in the status record instead.
func (m *Manager) leaseSnapshotLocked(j *job, now time.Time) []StoreRecord {
	byShard := m.shardResults[j.id]
	if len(byShard) == 0 || j.status.Terminal() {
		return nil
	}
	idxs := make([]int, 0, len(byShard))
	for idx := range byShard {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	recs := make([]StoreRecord, 0, len(idxs))
	for _, idx := range idxs {
		sr := byShard[idx]
		recs = append(recs, StoreRecord{Type: recordLease, ID: j.id, Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: idx, Lo: sr.lo, Hi: sr.hi, Records: sr.records,
		}})
	}
	return recs
}

// leaseCounts backs the lease gauges.
func (m *Manager) leaseCounts() (pending, granted int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lj := range m.leaseJobs {
		for _, sh := range lj.shards {
			switch sh.state {
			case leasePending:
				pending++
			case leaseGranted:
				granted++
			}
		}
	}
	return pending, granted
}

// leaseWorkerCount backs the worker gauge.
func (m *Manager) leaseWorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leaseWorkers)
}
