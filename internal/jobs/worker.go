package jobs

// Distributed campaign execution: worker side. A Worker is the pull
// loop a flexray-serve peer runs against a coordinator: claim a shard
// lease, heartbeat it, run the shard through the campaign engine, and
// report the records (or the failure) back. Shards carry everything
// needed to run standalone, and the campaign layer is deterministic
// per system, so any worker produces the records a serial run would
// have — the coordinator only re-anchors their indices.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// WorkerOptions tune a lease worker.
type WorkerOptions struct {
	// ID identifies this worker to the coordinator (lease ownership,
	// the lease table's worker list). Empty selects "<hostname>-<pid>".
	ID string
	// BaseURL is the coordinator, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; nil selects one with a 2-minute
	// timeout (completion bodies can be large).
	Client *http.Client
	// Poll is the wait before retrying a failed claim (unreachable or
	// closing coordinator); <= 0 selects 250ms. An empty answer is
	// retried at once: the coordinator holds a claim until work
	// appears, so an idle worker does not poll.
	Poll time.Duration
	// Workers is the per-shard campaign parallelism; <= 0 lets the
	// campaign layer default (GOMAXPROCS). Record content is
	// independent of it.
	Workers int
	// Logf receives operational messages; nil selects log.Printf.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, roots a span per shard, continuing the
	// coordinator's job trace via the grant's traceparent.
	Tracer *obs.Tracer
	// Metrics, when non-nil, publishes the worker-side shard counters
	// (flexray_worker_*). Sharing the manager's Metrics value is fine:
	// the worker only touches families NewMetrics registered.
	Metrics *Metrics
	// AfterClaim, when non-nil, runs once per granted shard with the
	// lease's context, after the heartbeat has started and before the
	// shard runs. It is a fault-injection hook for tests: one that
	// blocks until the context ends keeps the lease held and renewed
	// for as long as the process lives.
	AfterClaim func(ctx context.Context)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	o.BaseURL = strings.TrimRight(o.BaseURL, "/")
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Worker pulls shard leases from a coordinator and executes them.
type Worker struct {
	o WorkerOptions
}

// NewWorker builds a worker over the given options.
func NewWorker(o WorkerOptions) *Worker {
	return &Worker{o: o.withDefaults()}
}

// ID reports the worker's effective identity.
func (w *Worker) ID() string { return w.o.ID }

// Run claims and executes shards until ctx is cancelled; it always
// returns ctx's error. The coordinator holds each claim until work
// appears, so an empty answer is claimed again at once. Claim failures
// (unreachable coordinator, shutdown) back off by the poll interval
// and retry — a worker outlives coordinator restarts.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.claim(ctx)
		switch {
		case err != nil:
			if ctx.Err() == nil {
				w.o.Logf("jobs: worker %s: claim: %v", w.o.ID, err)
			}
			t := time.NewTimer(w.o.Poll)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		case grant != nil:
			w.runLease(ctx, grant)
		}
	}
}

// runLease executes one granted shard: heartbeat goroutine, the
// campaign run, then the completion report. A lease lost mid-run
// (expiry beat the heartbeat, or the job went away) abandons the
// shard silently — the coordinator has already re-queued it.
func (w *Worker) runLease(ctx context.Context, g *ShardGrant) {
	start := time.Now()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var lost atomic.Bool
	ttl := time.Duration(g.TTLMs) * time.Millisecond
	beat := ttl / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
			}
			if err := w.renew(sctx, g); err != nil {
				if isLeaseDead(err) {
					// The coordinator disowned us; stop burning CPU on
					// records nobody will accept.
					lost.Store(true)
					cancel()
					return
				}
				// Transient (network blip): keep beating until the
				// lease genuinely lapses.
			}
		}
	}()

	if w.o.AfterClaim != nil {
		w.o.AfterClaim(sctx)
	}
	runCtx := sctx
	var span *obs.Span
	if w.o.Tracer != nil {
		parent, _ := obs.ParseTraceparent(g.TraceParent)
		runCtx, span = w.o.Tracer.StartRoot(sctx, "lease.shard", parent)
		span.SetString("job_id", g.JobID)
		span.SetInt("shard", int64(g.Shard))
		span.SetString("worker", w.o.ID)
	}
	recs, err := runShardGrant(runCtx, g, w.o.Workers)
	span.Fail(err)
	span.End()
	cancel()
	hb.Wait()

	if lost.Load() {
		w.o.Metrics.observeWorkerShard("lost", time.Since(start))
		w.o.Logf("jobs: worker %s: lease %s lost mid-shard (job %s shard %d)", w.o.ID, g.LeaseID, g.JobID, g.Shard)
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
		recs = nil
	}
	// Report even when shutting down: handing the shard back now saves
	// the fleet a full lease TTL (a SIGKILL still relies on expiry).
	cctx := ctx
	if ctx.Err() != nil {
		var done context.CancelFunc
		cctx, done = context.WithTimeout(context.Background(), 3*time.Second)
		defer done()
	}
	if cerr := w.complete(cctx, g, recs, msg); cerr != nil {
		w.o.Metrics.observeWorkerShard("lost", time.Since(start))
		if !isLeaseDead(cerr) {
			w.o.Logf("jobs: worker %s: completing lease %s: %v", w.o.ID, g.LeaseID, cerr)
		}
		return
	}
	if err != nil {
		w.o.Metrics.observeWorkerShard("failed", time.Since(start))
		w.o.Logf("jobs: worker %s: shard %d of %s failed: %v", w.o.ID, g.Shard, g.JobID, err)
		return
	}
	w.o.Metrics.observeWorkerShard("done", time.Since(start))
}

// isLeaseDead reports whether an error means the lease can never be
// completed (as opposed to a transient transport failure).
func isLeaseDead(err error) bool {
	return errors.Is(err, ErrLeaseStale) || errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrLeaseNotFound)
}

// runShardGrant executes a shard's systems through the campaign layer,
// exactly as the coordinator's serial path would: same tuning applied
// to the same defaults, same algorithm list, per-system engines. The
// returned records carry shard-local indices; the coordinator rebases
// them.
func runShardGrant(ctx context.Context, g *ShardGrant, workers int) ([]campaign.Record, error) {
	if g.Hi < g.Lo {
		return nil, fmt.Errorf("jobs: invalid shard range [%d,%d)", g.Lo, g.Hi)
	}
	opts := g.Tuning.Apply(core.DefaultOptions())
	copts := campaign.Options{
		Workers:       workers,
		Algorithms:    g.Algorithms,
		SAWarmFromOBC: g.SAWarmFromOBC,
	}
	want := g.Hi - g.Lo
	recs := make([]campaign.Record, 0, want)
	emit := func(rec campaign.Record) error {
		recs = append(recs, rec)
		return nil
	}
	var err error
	switch {
	case len(g.Systems) > 0:
		systems := make([]*model.System, len(g.Systems))
		for i, raw := range g.Systems {
			systems[i], err = model.ReadJSON(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("jobs: shard system %d: %w", i, err)
			}
		}
		err = campaign.RunSystems(ctx, systems, opts, copts, emit)
	default:
		err = campaign.Run(ctx, g.Specs, opts, copts, emit)
	}
	if err != nil {
		return nil, err
	}
	if len(recs) != want {
		return nil, fmt.Errorf("jobs: shard produced %d records, want %d", len(recs), want)
	}
	return recs, nil
}

// claim asks the coordinator for a shard; nil without error means the
// coordinator held the claim and no work appeared.
func (w *Worker) claim(ctx context.Context) (*ShardGrant, error) {
	resp, err := w.post(ctx, "/v1/leases/claim", leaseClaimRequest{Worker: w.o.ID})
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var g ShardGrant
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			return nil, fmt.Errorf("jobs: decoding grant: %w", err)
		}
		return &g, nil
	}
	return nil, leaseRespError(resp)
}

// renew heartbeats a held lease.
func (w *Worker) renew(ctx context.Context, g *ShardGrant) error {
	resp, err := w.post(ctx, "/v1/leases/"+g.LeaseID+"/renew", leaseClaimRequest{Worker: w.o.ID})
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return leaseRespError(resp)
}

// complete reports a shard's outcome, retrying transient failures a
// few times (a lease outlives short coordinator hiccups; a dead lease
// error ends the retries at once).
func (w *Worker) complete(ctx context.Context, g *ShardGrant, recs []campaign.Record, errMsg string) error {
	req := leaseCompleteRequest{Worker: w.o.ID, Records: recs, Error: errMsg}
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(time.Duration(attempt) * 200 * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		resp, err := w.post(ctx, "/v1/leases/"+g.LeaseID+"/complete", req)
		if err != nil {
			last = err
			continue
		}
		code := resp.StatusCode
		err = leaseRespError(resp)
		drain(resp)
		if code == http.StatusOK {
			return nil
		}
		last = err
		if code < 500 {
			// Client-class answers (409/410/400...) won't improve with
			// retries.
			return last
		}
	}
	return last
}

func (w *Worker) post(ctx context.Context, path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.o.Client.Do(req)
}

// leaseRespError turns a non-2xx lease response into the matching
// sentinel error (so the loop logic can branch on it) with the
// server's message attached.
func leaseRespError(resp *http.Response) error {
	// The coordinator speaks the structured envelope
	// {"error": {"code", "message"}}; anything else (a proxy's error
	// page, say) falls back to the raw body.
	var body struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = json.Unmarshal(data, &body)
	msg := body.Error.Message
	if msg == "" {
		msg = strings.TrimSpace(string(data))
	}
	var base error
	switch resp.StatusCode {
	case http.StatusNotFound:
		base = ErrLeaseNotFound
	case http.StatusConflict:
		base = ErrLeaseStale
	case http.StatusGone:
		base = ErrLeaseGone
	default:
		return fmt.Errorf("jobs: lease request: HTTP %d: %s", resp.StatusCode, msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w (%s)", base, msg)
}

// drain finishes a response body so the HTTP client can reuse the
// connection.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
