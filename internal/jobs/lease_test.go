package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// startLeaseFleet serves m's lease endpoints on a loopback listener and
// runs one in-process Worker per id against it, stopping everything at
// test cleanup (before the manager closes).
func startLeaseFleet(t *testing.T, m *Manager, ids ...string) {
	t.Helper()
	mux := http.NewServeMux()
	NewLeaseAPI(m).Register(mux)
	ts := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range ids {
		w := NewWorker(WorkerOptions{ID: id, BaseURL: ts.URL, Workers: 1, Logf: t.Logf})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
	})
}

// canonicalRecords strips the wall-clock timing telemetry (the only
// nondeterministic field) and marshals the rest, so two runs can be
// compared byte-for-byte.
func canonicalRecords(t *testing.T, recs []campaign.Record) []byte {
	t.Helper()
	out := make([]campaign.Record, len(recs))
	for i, rec := range recs {
		rec.Runs = append([]campaign.AlgoRun(nil), rec.Runs...)
		for k := range rec.Runs {
			rec.Runs[k].ElapsedUs = 0
		}
		out[i] = rec
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runSerialBaseline executes spec (with Distribute off) on a fresh
// single-process manager and returns its records.
func runSerialBaseline(t *testing.T, spec Spec) []campaign.Record {
	t.Helper()
	spec.Distribute = false
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// TestDistributedCampaignParity: a distributed campaign drained by two
// worker peers produces records bit-identical (modulo wall-clock
// telemetry) to a serial single-process run.
func TestDistributedCampaignParity(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 3}, AppsPerCount: 2, Seed: 7, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc", "obc-cf"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	startLeaseFleet(t, m, "w1", "w2")
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalRecords(t, res.Records)
	if string(got) != string(want) {
		t.Errorf("distributed records differ from serial run:\n got %s\nwant %s", got, want)
	}
	if done.Progress.Completed != 4 || done.Progress.Total != 4 {
		t.Errorf("progress %+v, want 4/4", done.Progress)
	}
	if done.Progress.Best == "" {
		t.Error("settled progress lost its best system")
	}
}

// TestDistributedUploadedSystems: the uploaded-systems payload path
// ships raw system JSON to the workers and still matches serial.
func TestDistributedUploadedSystems(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{Systems: []json.RawMessage{sysJSON(t, 2, 5), sysJSON(t, 3, 9), sysJSON(t, 2, 11)}},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 2, LeaseTTL: 10 * time.Second})
	startLeaseFleet(t, m, "w1")
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalRecords(t, res.Records); string(got) != string(want) {
		t.Errorf("distributed records differ from serial run:\n got %s\nwant %s", got, want)
	}
}

// submitDistributed submits a small distributed campaign and waits for
// it to publish its shard leases.
func submitDistributed(t *testing.T, m *Manager, systems int) Job {
	t.Helper()
	counts := make([]int, systems)
	for i := range counts {
		counts[i] = 2
	}
	job, err := m.Submit(Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: counts, AppsPerCount: 1, Seed: 7, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitPublished(t, m, job.ID, systems)
	return job
}

// waitPublished waits until a running distributed job has published
// its shard leases: the job turns running before its run registers
// the shards, so a claim right after waitStatus can find none.
func waitPublished(t *testing.T, m *Manager, id string, shards int) {
	t.Helper()
	waitStatus(t, m, id, StatusRunning)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		published := 0
		for _, l := range m.Leases().Leases {
			if l.JobID == id {
				published++
			}
		}
		if published == shards {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never published %d shard leases", id, shards)
}

// TestLeaseExpiryRequeue: a claimed shard whose worker goes silent is
// re-queued by the janitor after the TTL; the dead lease answers 409
// and a re-grant carries the next attempt number. The store keeps the
// fault and the result — one "expire" and one "complete" — and no
// grants.
func TestLeaseExpiryRequeue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	store, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, store, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 50 * time.Millisecond})
	submitDistributed(t, m, 1)

	g, err := m.ClaimLease("doomed")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if g.Attempt != 1 {
		t.Fatalf("first grant attempt %d, want 1", g.Attempt)
	}
	// No renewals: the janitor must expire the lease and re-queue the
	// shard.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ls := m.Leases().Leases
		if len(ls) == 1 && ls[0].State == "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never re-queued; leases %+v", ls)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.RenewLease(g.LeaseID, "doomed"); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("renewing an expired lease: %v, want ErrLeaseStale", err)
	}
	recs, err := runShardGrant(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g.LeaseID, "doomed", recs, ""); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("completing an expired lease: %v, want ErrLeaseStale", err)
	}

	g2, err := m.ClaimLease("healthy")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim: %v, %v", g2, err)
	}
	if g2.Attempt != 2 || g2.Lo != g.Lo || g2.Hi != g.Hi || g2.Shard != g.Shard {
		t.Errorf("re-grant %+v, want attempt 2 of the same shard as %+v", g2, g)
	}
	if err := m.CompleteLease(g2.LeaseID, "healthy", recs, ""); err != nil {
		t.Fatalf("completing the re-granted lease: %v", err)
	}
	waitStatus(t, m, submittedJobID(t, m), StatusDone)

	// The expire record is appended after the shard re-queues, so give
	// the janitor's append a moment to land.
	var events map[string]int
	for deadline := time.Now().Add(10 * time.Second); ; {
		events = storeLeaseEvents(t, path)
		if events["expire"] > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want := map[string]int{"expire": 1, "complete": 1}; !maps.Equal(events, want) {
		t.Errorf("store lease events %v, want %v", events, want)
	}
}

// storeLeaseEvents counts the lease records of a JSONL store by event.
func storeLeaseEvents(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec StoreRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("store line %q: %v", line, err)
		}
		if rec.Type == recordLease {
			events[rec.Lease.Event]++
		}
	}
	return events
}

// submittedJobID returns the single job the manager holds.
func submittedJobID(t *testing.T, m *Manager) string {
	t.Helper()
	list := m.List("")
	if len(list) != 1 {
		t.Fatalf("%d jobs, want 1", len(list))
	}
	return list[0].ID
}

// TestLeaseFailureRequeue: a worker-reported shard failure re-queues
// the shard instead of failing the job.
func TestLeaseFailureRequeue(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 1)

	g, err := m.ClaimLease("flaky")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if err := m.CompleteLease(g.LeaseID, "flaky", nil, "synthetic crash"); err != nil {
		t.Fatalf("failing the lease: %v", err)
	}
	g2, err := m.ClaimLease("steady")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim after failure: %v, %v", g2, err)
	}
	if g2.Attempt != 2 {
		t.Errorf("attempt %d after failure, want 2", g2.Attempt)
	}
	recs, err := runShardGrant(context.Background(), g2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g2.LeaseID, "steady", recs, ""); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
}

// TestCancelRetiresLeasesAtOnce: cancelling a distributed job retires
// its outstanding leases before Cancel returns, so a worker's next
// report or renewal answers ErrLeaseGone and no shard of the job is
// granted again — however late the job's run notices the cancellation.
func TestCancelRetiresLeasesAtOnce(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 2)
	g, err := m.ClaimLease("w1")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g.LeaseID, "w1", nil, "reporting into a cancelled job"); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("failure report after Cancel: %v, want ErrLeaseGone", err)
	}
	if _, err := m.RenewLease(g.LeaseID, "w1"); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("renewal after Cancel: %v, want ErrLeaseGone", err)
	}
	if g2, err := m.ClaimLease("w2"); g2 != nil || err != nil {
		t.Errorf("claim after Cancel: %+v, %v, want nothing to claim", g2, err)
	}
	waitStatus(t, m, job.ID, StatusCancelled)
}

// TestCompleteLeasePayloadMismatch: a record count that does not match
// the shard range, or a record describing another system than the one
// leased at its position (node count and seed of a synthesised
// system, name and node count of an uploaded one), is rejected with
// ErrLeasePayload and the lease stays held.
func TestCompleteLeasePayloadMismatch(t *testing.T) {
	for _, pop := range []*Population{
		{NodeCounts: []int{2}, AppsPerCount: 1, Seed: 7, DeadlineFactor: 2.0},
		{Systems: []json.RawMessage{sysJSON(t, 2, 5)}},
	} {
		m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
		job, err := m.Submit(Spec{
			Kind: KindCampaign, Population: pop,
			Algorithms: []string{"bbc"}, Tuning: quickTuning(), Distribute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitPublished(t, m, job.ID, 1)
		g, err := m.ClaimLease("w")
		if err != nil || g == nil {
			t.Fatalf("claim: %v, %v", g, err)
		}
		recs, err := runShardGrant(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		other := recs[0]
		if len(pop.Systems) > 0 {
			other.Name += "-other"
		} else {
			other.Seed++
		}
		resized := recs[0]
		resized.Nodes++
		for name, bogus := range map[string][]campaign.Record{
			"oversized":      {recs[0], recs[0]},
			"another system": {other},
			"another size":   {resized},
		} {
			if err := m.CompleteLease(g.LeaseID, "w", bogus, ""); !errors.Is(err, ErrLeasePayload) {
				t.Fatalf("%s payload: %v, want ErrLeasePayload", name, err)
			}
		}
		if err := m.CompleteLease(g.LeaseID, "thief", nil, "not mine"); !errors.Is(err, ErrLeaseStale) {
			t.Fatalf("foreign worker completing: %v, want ErrLeaseStale", err)
		}
		if err := m.CompleteLease(g.LeaseID, "w", recs, ""); err != nil {
			t.Fatalf("valid completion after rejects: %v", err)
		}
		waitStatus(t, m, job.ID, StatusDone)
		if err := m.CompleteLease(g.LeaseID, "w", recs, ""); !errors.Is(err, ErrLeaseStale) {
			t.Fatalf("double complete: %v, want ErrLeaseStale", err)
		}
	}
}

// TestDistributedRestartResume: a coordinator restart replays durably
// completed shards and re-runs only the missing ones; the merged result
// still matches a serial run.
func TestDistributedRestartResume(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 2, 3}, AppsPerCount: 1, Seed: 3, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	store1, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(store1, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPublished(t, m1, job.ID, 3)
	// Complete exactly one shard durably, then crash-stop the
	// coordinator (Close checkpoints the running job back to queued).
	g, err := m1.ClaimLease("w1")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	recs, err := runShardGrant(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompleteLease(g.LeaseID, "w1", recs, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	store2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, store2, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	// The completed shard must already be adopted from replay before
	// any worker shows up.
	m2.mu.Lock()
	_, adopted := m2.shardResults[job.ID][g.Shard]
	m2.mu.Unlock()
	if !adopted {
		t.Fatalf("replay did not restore shard %d of %s", g.Shard, job.ID)
	}
	startLeaseFleet(t, m2, "w1", "w2")
	waitStatus(t, m2, job.ID, StatusDone)
	res, _, err := m2.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalRecords(t, res.Records); string(got) != string(want) {
		t.Errorf("resumed records differ from serial run:\n got %s\nwant %s", got, want)
	}
}

// TestLeaseReplayNeverResurrects: conflicting and malformed lease
// records in the store can neither overwrite the first durable shard
// completion nor attach results to unknown or terminal jobs.
func TestLeaseReplayNeverResurrects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	seeded, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 2}, AppsPerCount: 1, Seed: 3, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	now := time.Now()
	rec := func(idx, lo, hi int, name string, n int) StoreRecord {
		recs := make([]campaign.Record, n)
		for i := range recs {
			recs[i] = campaign.Record{Index: lo + i, Name: name}
		}
		return StoreRecord{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: idx, Lo: lo, Hi: hi, Records: recs,
		}}
	}
	seed := []StoreRecord{
		{Type: recordSubmit, ID: "j-test", Time: now, Spec: spec},
		// Grant records (written by older coordinators) and expiry
		// records must be ignored outright.
		{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{Event: "grant", Shard: 0, Lo: 0, Hi: 1, Worker: "w"}},
		{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{Event: leaseEventExpire, Shard: 0, Lo: 0, Hi: 1, Worker: "w"}},
		rec(0, 0, 1, "first", 1),
		// A duplicate complete must not displace the first.
		rec(0, 0, 1, "second", 1),
		// Malformed payloads: inverted range, wrong record count,
		// negative shard index.
		rec(1, 1, 0, "bad-range", 0),
		rec(1, 1, 2, "bad-count", 3),
		rec(-1, 0, 1, "bad-shard", 1),
		// A complete for a job that does not exist.
		{Type: recordLease, ID: "j-ghost", Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: 0, Lo: 0, Hi: 1,
			Records: []campaign.Record{{Index: 0}},
		}},
	}
	for _, r := range seed {
		if err := seeded.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := seeded.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, store, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: time.Hour})
	waitStatus(t, m, "j-test", StatusRunning)
	m.mu.Lock()
	got := m.shardResults["j-test"]
	name := ""
	if sr, ok := got[0]; ok && len(sr.records) == 1 {
		name = sr.records[0].Name
	}
	_, ghost := m.shardResults["j-ghost"]
	badCount := len(got)
	m.mu.Unlock()
	if name != "first" {
		t.Errorf("shard 0 replayed as %q, want the first durable complete", name)
	}
	if badCount != 1 {
		t.Errorf("%d shards replayed, want only the well-formed one", badCount)
	}
	if ghost {
		t.Error("replay attached results to an unknown job")
	}
	if _, err := m.Cancel("j-test"); err != nil {
		t.Fatal(err)
	}
}

// TestClaimLeaseDrain: claims are FIFO — the first pending shard in
// (job submission order, shard index) order goes to whichever worker
// asks, so a later job's shards wait behind an earlier job's — and
// each shard is handed out exactly once before claims answer no-work;
// the lease list tracks the registered workers.
func TestClaimLeaseDrain(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 2, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	first := submitDistributed(t, m, 3)
	second := submitDistributed(t, m, 2)

	type slot struct {
		job   string
		shard int
	}
	want := []slot{{first.ID, 0}, {first.ID, 1}, {first.ID, 2}, {second.ID, 0}, {second.ID, 1}}
	grants := []*ShardGrant{}
	for i, w := range []string{"w2", "w1", "w3", "w1", "w2"} {
		g, err := m.ClaimLease(w)
		if err != nil || g == nil {
			t.Fatalf("claim for %s: %v, %v", w, g, err)
		}
		if got := (slot{g.JobID, g.Shard}); got != want[i] {
			t.Fatalf("claim %d by %s granted %+v, want %+v", i, w, got, want[i])
		}
		grants = append(grants, g)
	}
	if g, err := m.ClaimLease("w2"); err != nil || g != nil {
		t.Fatalf("claim on a drained table: %v, %v, want no work", g, err)
	}
	ll := m.Leases()
	if len(ll.Workers) != 3 {
		t.Errorf("%d workers registered, want 3", len(ll.Workers))
	}
	granted := 0
	for _, l := range ll.Leases {
		if l.State == "granted" {
			granted++
		}
	}
	if granted != len(want) {
		t.Errorf("%d granted leases listed, want %d", granted, len(want))
	}
	for _, g := range grants {
		recs, err := runShardGrant(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CompleteLease(g.LeaseID, grantWorker(ll, g.LeaseID), recs, ""); err != nil {
			t.Fatalf("completing %s: %v", g.LeaseID, err)
		}
	}
	waitStatus(t, m, first.ID, StatusDone)
	waitStatus(t, m, second.ID, StatusDone)
}

// grantWorker finds the worker holding a lease in a snapshot.
func grantWorker(ll LeaseList, leaseID string) string {
	for _, l := range ll.Leases {
		if l.ID == leaseID {
			return l.Worker
		}
	}
	return ""
}

// TestCampaignAdoptsReplayedShard: a local campaign resumed from the
// store adopts the shards an earlier run completed instead of
// recomputing them. The planted shard 0 carries a deliberately altered
// cost, so adoption shows in the result; shards 1 and 2 are computed
// and must equal a direct campaign.Run, each stored as it finishes.
func TestCampaignAdoptsReplayedShard(t *testing.T) {
	spec := Spec{
		Kind:         KindCampaign,
		Population:   &Population{NodeCounts: []int{2, 2, 3}, AppsPerCount: 1, Seed: 5, DeadlineFactor: 2.0},
		Algorithms:   []string{"bbc"},
		Tuning:       quickTuning(),
		ShardSystems: 1,
	}
	specs := campaign.PopulationSpecs(spec.Population.NodeCounts, 1, spec.Population.Seed, spec.Population.DeadlineFactor)
	var want []campaign.Record
	err := campaign.Run(context.Background(), specs, quickTuning().Apply(core.DefaultOptions()),
		campaign.Options{Workers: 1, Algorithms: spec.Algorithms},
		func(r campaign.Record) error { want = append(want, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	planted := want[0]
	planted.BestCost -= 1000

	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []StoreRecord{
		{Type: recordSubmit, ID: "j-local", Time: now, Spec: &spec},
		{Type: recordLease, ID: "j-local", Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: 0, Lo: 0, Hi: 1, Records: []campaign.Record{planted},
		}},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, s2, ManagerOptions{Workers: 1})
	waitStatus(t, m, "j-local", StatusDone)
	res, _, err := m.Result("j-local")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("%d records, want 3", len(res.Records))
	}
	if got, w := canonicalRecords(t, res.Records[:1]), canonicalRecords(t, []campaign.Record{planted}); string(got) != string(w) {
		t.Errorf("record 0 was recomputed, not adopted:\n got %s\nwant %s", got, w)
	}
	if got, w := canonicalRecords(t, res.Records[1:]), canonicalRecords(t, want[1:]); string(got) != string(w) {
		t.Errorf("records 1-2 differ from a direct run:\n got %s\nwant %s", got, w)
	}
	if events := storeLeaseEvents(t, path); events["complete"] != 3 || len(events) != 1 {
		t.Errorf("store lease events %v, want the planted complete plus one per computed shard", events)
	}
}
