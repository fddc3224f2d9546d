package jobs

import (
	"time"

	"repro/internal/obs"
)

// runBuckets span job run durations (seconds): quick analyze jobs land
// in the milliseconds, full campaigns in the minutes.
var runBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Metrics publishes a manager's telemetry into an obs.Registry. Build
// one with NewMetrics and hand it to exactly one manager via
// ManagerOptions.Metrics — binding registers scrape-time views over
// that manager's state, and a registry rejects duplicate series.
//
// A nil *Metrics is a valid no-op receiver: an uninstrumented manager
// (ManagerOptions.Metrics unset) pays only nil checks, which keeps the
// perf-regression scenarios byte-identical to the unobserved build.
type Metrics struct {
	reg *obs.Registry

	submitted  *obs.Counter
	finished   map[Status]*obs.Counter
	startDelay *obs.Histogram
	runTime    *obs.Histogram

	appendTime  *obs.Histogram
	appendErrs  *obs.Counter
	compactTime *obs.Histogram

	leaseGranted   *obs.Counter
	leaseCompleted *obs.Counter
	leaseExpired   *obs.Counter
	leaseFailed    *obs.Counter

	workerShards    map[string]*obs.Counter // keyed by outcome
	workerShardTime *obs.Histogram
}

// NewMetrics registers the jobs/store instrument families on r.
func NewMetrics(r *obs.Registry) *Metrics {
	x := &Metrics{reg: r}
	x.submitted = r.Counter("flexray_jobs_submitted_total",
		"Jobs accepted (durably recorded) by the manager.")
	x.finished = map[Status]*obs.Counter{}
	for _, st := range []Status{StatusDone, StatusFailed, StatusCancelled} {
		x.finished[st] = r.Counter("flexray_jobs_finished_total",
			"Jobs reaching a terminal state, by final status.", "status", string(st))
	}
	x.startDelay = r.Histogram("flexray_jobs_start_delay_seconds",
		"Queue wait: submission to a worker picking the job up.", obs.DefBuckets)
	x.runTime = r.Histogram("flexray_jobs_run_seconds",
		"Job execution time from start to terminal state.", runBuckets)
	x.appendTime = r.Histogram("flexray_store_append_seconds",
		"Durable store append latency (includes the fsync on file stores).", obs.IOBuckets)
	x.appendErrs = r.Counter("flexray_store_append_errors_total",
		"Store appends that failed (the in-memory state stays authoritative).")
	x.compactTime = r.Histogram("flexray_store_compact_seconds",
		"Store compaction (snapshot rewrite) duration.", obs.IOBuckets)
	x.leaseGranted = r.Counter("flexray_lease_granted_total",
		"Distributed shard leases granted.")
	x.leaseCompleted = r.Counter("flexray_lease_completed_total",
		"Shard leases completed with durably recorded results.")
	x.leaseExpired = r.Counter("flexray_lease_expired_total",
		"Shard leases that outlived their TTL without completion; their shards re-queued.")
	x.leaseFailed = r.Counter("flexray_lease_failed_total",
		"Shard leases returned as failed by their worker; their shards re-queued.")
	x.workerShards = map[string]*obs.Counter{}
	for _, outcome := range []string{"done", "failed", "lost"} {
		x.workerShards[outcome] = r.Counter("flexray_worker_shards_total",
			"Shards this process executed as a worker peer, by outcome.", "outcome", outcome)
	}
	x.workerShardTime = r.Histogram("flexray_worker_shard_seconds",
		"Worker-side shard execution time, claim to completion report.", runBuckets)
	return x
}

// bind registers the scrape-time views over one manager's live state;
// called once from NewManager.
func (x *Metrics) bind(m *Manager) {
	r := x.reg
	for _, st := range []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
		st := st
		r.GaugeFunc("flexray_jobs_state",
			"Jobs currently retained by the manager, by lifecycle state.",
			func() float64 { return float64(m.countStatus(st)) },
			"state", string(st))
	}
	r.GaugeFunc("flexray_jobs_queue_depth",
		"Jobs waiting for a worker (queued plus in-flight submissions).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.queue) + m.reserved)
		})
	r.CounterFunc("flexray_jobs_evicted_total",
		"Terminal jobs evicted by the retention policy since start.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.evictions)
		})
	r.GaugeFunc("flexray_jobs_result_bytes",
		"Summed encoded size of retained job results.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.resultBytes)
		})
	r.CounterFunc("flexray_store_compactions_total",
		"Store snapshot rewrites since the manager started.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.compactions)
		})
	r.GaugeFunc("flexray_store_size_bytes",
		"On-disk footprint of the durable job store; -1 when the store does not report one.",
		func() float64 {
			if sz, ok := m.store.(Sizer); ok {
				if n, err := sz.Size(); err == nil {
					return float64(n)
				}
			}
			return -1
		})
	r.GaugeFunc("flexray_lease_pending",
		"Distributed campaign shards waiting for a worker.",
		func() float64 { p, _ := m.leaseCounts(); return float64(p) })
	r.GaugeFunc("flexray_lease_active",
		"Shard leases currently granted to workers.",
		func() float64 { _, g := m.leaseCounts(); return float64(g) })
	r.GaugeFunc("flexray_lease_workers",
		"Worker peers seen within the last few lease TTLs.",
		func() float64 { return float64(m.leaseWorkerCount()) })
}

// countStatus counts retained jobs in one lifecycle state.
func (m *Manager) countStatus(st Status) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.status == st {
			n++
		}
	}
	return n
}

func (x *Metrics) observeSubmitted() {
	if x != nil {
		x.submitted.Inc()
	}
}

// observeFinished records a terminal transition; runDur is zero for
// jobs that never ran (cancelled while queued) and is then skipped.
func (x *Metrics) observeFinished(st Status, runDur time.Duration) {
	if x == nil {
		return
	}
	if c, ok := x.finished[st]; ok {
		c.Inc()
	}
	if runDur > 0 {
		x.runTime.Observe(runDur.Seconds())
	}
}

func (x *Metrics) observeStartDelay(d time.Duration) {
	if x != nil {
		x.startDelay.Observe(d.Seconds())
	}
}

func (x *Metrics) observeAppend(d time.Duration, err error) {
	if x == nil {
		return
	}
	x.appendTime.Observe(d.Seconds())
	if err != nil {
		x.appendErrs.Inc()
	}
}

func (x *Metrics) observeCompact(d time.Duration) {
	if x != nil {
		x.compactTime.Observe(d.Seconds())
	}
}

func (x *Metrics) observeLeaseGranted() {
	if x != nil {
		x.leaseGranted.Inc()
	}
}

func (x *Metrics) observeLeaseCompleted() {
	if x != nil {
		x.leaseCompleted.Inc()
	}
}

func (x *Metrics) observeLeaseExpired() {
	if x != nil {
		x.leaseExpired.Inc()
	}
}

func (x *Metrics) observeLeaseFailed() {
	if x != nil {
		x.leaseFailed.Inc()
	}
}

// observeWorkerShard records one worker-side shard execution.
func (x *Metrics) observeWorkerShard(outcome string, d time.Duration) {
	if x == nil {
		return
	}
	if c, ok := x.workerShards[outcome]; ok {
		c.Inc()
	}
	x.workerShardTime.Observe(d.Seconds())
}
