package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// addTerminal white-box inserts a finished job, bypassing the workers,
// so retention tests control FinishedAt and result size exactly.
func addTerminal(t *testing.T, m *Manager, id string, fin time.Time, resBytes int64) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j := &job{
		id: id, seq: m.seq, status: StatusDone, finishedAt: fin,
		heapIdx: -1, subs: map[*subscriber]struct{}{}, resultBytes: resBytes,
	}
	if resBytes > 0 {
		j.result = &Result{}
	}
	m.seq++
	m.jobs[id] = j
	m.resultBytes += resBytes
}

// scrapeSeries scrapes reg as TestManagerMetrics does and returns the
// value of one series, named with its labels as exposed.
func scrapeSeries(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("scrape lacks %s", series)
	return 0
}

// tempStore opens a FileStore in a fresh temporary directory and
// returns it with its path.
func tempStore(t *testing.T) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// storeIDs reads the store file at path and returns "type/id" per
// record.
func storeIDs(t *testing.T, path string) []string {
	t.Helper()
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, rec := range recs {
		ids = append(ids, rec.Type+"/"+rec.ID)
	}
	return ids
}

// TestRetentionEvictionOrder pins the eviction contract: terminal jobs
// leave oldest-FinishedAt-first, submission sequence breaking ties,
// and each eviction is durably recorded in that order.
func TestRetentionEvictionOrder(t *testing.T) {
	store, path := tempStore(t)
	reg := obs.NewRegistry()
	m := newTestManager(t, store, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxTerminal: 1}, Metrics: NewMetrics(reg),
	})
	base := time.Now().Add(-time.Hour)
	addTerminal(t, m, "j-a", base.Add(3*time.Minute), 10) // newest: survives
	addTerminal(t, m, "j-b", base.Add(1*time.Minute), 10) // oldest: evicted first
	addTerminal(t, m, "j-c", base.Add(2*time.Minute), 10) // tie on time...
	addTerminal(t, m, "j-d", base.Add(2*time.Minute), 10) // ...lower seq (j-c) goes first
	m.applyRetention()

	if list := m.List(""); len(list) != 1 || list[0].ID != "j-a" {
		t.Fatalf("retained %v, want exactly j-a", list)
	}
	want := []string{"evict/j-b", "evict/j-c", "evict/j-d"}
	got := storeIDs(t, path)
	if len(got) != len(want) {
		t.Fatalf("store records %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", got, want)
		}
	}
	for _, id := range []string{"j-b", "j-c", "j-d"} {
		if _, err := m.Get(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Get(%s): %v, want ErrEvicted", id, err)
		}
		if _, _, err := m.Result(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Result(%s): %v, want ErrEvicted", id, err)
		}
		if _, err := m.Cancel(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Cancel(%s): %v, want ErrEvicted", id, err)
		}
		if _, _, _, err := m.Subscribe(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Subscribe(%s): %v, want ErrEvicted", id, err)
		}
	}
	if _, err := m.Get("j-never"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: %v, want ErrNotFound", err)
	}
	evicted := scrapeSeries(t, reg, "flexray_jobs_evicted_total")
	resultBytes := scrapeSeries(t, reg, "flexray_jobs_result_bytes")
	if evicted != 3 || resultBytes != 10 {
		t.Errorf("stats evicted=%v result_bytes=%v, want 3 and 10", evicted, resultBytes)
	}
}

// TestRetentionMaxAge: only terminal jobs older than MaxAge go.
func TestRetentionMaxAge(t *testing.T) {
	store, _ := tempStore(t)
	m := newTestManager(t, store, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxAge: time.Hour},
	})
	now := time.Now()
	addTerminal(t, m, "j-old", now.Add(-2*time.Hour), 5)
	addTerminal(t, m, "j-new", now.Add(-time.Minute), 5)
	m.applyRetention()
	if _, err := m.Get("j-old"); !errors.Is(err, ErrEvicted) {
		t.Errorf("expired job: %v, want ErrEvicted", err)
	}
	if _, err := m.Get("j-new"); err != nil {
		t.Errorf("fresh job evicted: %v", err)
	}
}

// TestRetentionMaxResultBytes: the byte budget evicts the oldest
// result-bearing jobs until the total fits, skipping result-less ones.
func TestRetentionMaxResultBytes(t *testing.T) {
	reg := obs.NewRegistry()
	store, _ := tempStore(t)
	m := newTestManager(t, store, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxResultBytes: 150}, Metrics: NewMetrics(reg),
	})
	base := time.Now().Add(-time.Hour)
	addTerminal(t, m, "j-x", base.Add(1*time.Minute), 100)
	addTerminal(t, m, "j-y", base.Add(2*time.Minute), 0) // cancelled-style: no result
	addTerminal(t, m, "j-z", base.Add(3*time.Minute), 100)
	m.applyRetention()
	if _, err := m.Get("j-x"); !errors.Is(err, ErrEvicted) {
		t.Errorf("oldest result-bearing job: %v, want ErrEvicted", err)
	}
	for _, id := range []string{"j-y", "j-z"} {
		if _, err := m.Get(id); err != nil {
			t.Errorf("job %s evicted: %v", id, err)
		}
	}
	if rb := scrapeSeries(t, reg, "flexray_jobs_result_bytes"); rb != 100 {
		t.Errorf("retained result bytes %v, want 100", rb)
	}
}

// TestRetentionOnLiveJobs drives retention through real execution: with
// MaxTerminal=1, finishing a second job evicts the first, and the
// eviction is visible over the manager API. The manager has no store,
// so nothing else holds the evicted result: it is garbage once the
// job leaves the table.
func TestRetentionOnLiveJobs(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxTerminal: 1},
	})
	spec := Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5),
		Algorithms: []string{"bbc"}, Tuning: quickTuning()}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, first.ID, StatusDone)
	res, _, err := m.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	firstResult := weak.Make(res)
	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, second.ID, StatusDone)
	// Eviction runs just after the terminal transition is visible.
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := m.Get(first.ID); errors.Is(err, ErrEvicted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	if firstResult.Value() != nil {
		t.Error("the evicted job's result is still reachable after a collection")
	}
	if _, _, err := m.Result(second.ID); err != nil {
		t.Errorf("retained job result: %v", err)
	}
}

// fatHistory writes a synthetic store: n finished jobs whose results
// carry pad bytes of payload each, exactly what a long-lived
// deployment accumulates.
func fatHistory(t *testing.T, path string, n, pad int) {
	t.Helper()
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`"` + strings.Repeat("x", pad) + `"`)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j-%03d", i)
		at := base.Add(time.Duration(i) * time.Second)
		if err := s.Append(StoreRecord{
			Type: recordSubmit, ID: id, Time: at, Spec: &Spec{Kind: KindOptimize},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(StoreRecord{
			Type: recordStatus, ID: id, Time: at.Add(time.Second), Status: StatusDone,
			Progress: &Progress{Total: 1, Completed: 1},
			Result:   &Result{Optimize: &OptimizeResult{Algorithm: "bbc", Config: payload}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionBoundsReplay is the proportional-replay pin: a store
// holding 11x more evicted history than the retention policy keeps
// compacts down to live state plus tombstones, and a restart replays
// only that.
func TestCompactionBoundsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	fatHistory(t, path, 22, 2048)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := NewManager(s, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxTerminal: 2}, Logf: t.Logf, Metrics: NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	evicted := scrapeSeries(t, reg, "flexray_jobs_evicted_total")
	done := scrapeSeries(t, reg, `flexray_jobs_state{state="done"}`)
	if evicted != 20 || done != 2 {
		t.Fatalf("after replay: evicted=%v done=%v, want 20 and 2", evicted, done)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if c := scrapeSeries(t, reg, "flexray_store_compactions_total"); c != 1 {
		t.Errorf("store compactions after compaction: %v, want 1", c)
	}
	size := scrapeSeries(t, reg, "flexray_store_size_bytes")
	if size <= 0 || size >= float64(before.Size()/4) {
		t.Errorf("compacted store is %v bytes, want >0 and well under the original %d",
			size, before.Size())
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Startup replay reads only the snapshot (+ empty tail): 20
	// tombstones and 2 retained jobs at 2 records each.
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 24 {
		t.Fatalf("replay reads %d records, want 24 (20 tombstones + 2x2 live)", len(recs))
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, s2, ManagerOptions{
		Workers: 1, Retention: RetentionPolicy{MaxTerminal: 2},
	})
	res, snap, err := m2.Result("j-021")
	if err != nil || snap.Status != StatusDone || res.Optimize == nil {
		t.Fatalf("retained result after restart: %+v, err %v", snap, err)
	}
	if _, err := m2.Get("j-000"); !errors.Is(err, ErrEvicted) {
		t.Errorf("evicted id after restart: %v, want ErrEvicted", err)
	}
}

// TestRestartAfterCompactionResume: a manager closed with work
// outstanding compacts the store on shutdown; a restart — even one
// that finds a truncated compaction temp file from a later crash —
// replays the snapshot, serves retained results and resumes the
// interrupted job.
func TestRestartAfterCompactionResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	quick := Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5),
		Algorithms: []string{"bbc"}, Tuning: quickTuning()}

	s1, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(s1, ManagerOptions{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done, err := m1.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m1, done.ID, StatusDone)
	pending, err := m1.Submit(Spec{Kind: KindCampaign, Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Population: &Population{NodeCounts: []int{2, 3}, AppsPerCount: 2, Seed: 4, DeadlineFactor: 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Shutdown compacted: the log now replays to exactly live state —
	// the finished job (2 records) and the checkpointed pending one
	// (submit only, or submit+running if caught mid-run; replay treats
	// both as queued).
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 || len(recs) > 4 {
		t.Fatalf("compacted log has %d records, want 3-4", len(recs))
	}

	// A crash during a later compaction leaves a truncated temp file;
	// it must be ignored and the snapshot replayed intact.
	if err := os.WriteFile(path+compactSuffix, []byte(`{"type":"submit","id":"j-tru`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + compactSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale compaction temp file not removed: %v", err)
	}
	m2 := newTestManager(t, s2, ManagerOptions{Workers: 1})
	if res, snap, err := m2.Result(done.ID); err != nil || snap.Status != StatusDone || res.Optimize == nil {
		t.Fatalf("retained result after compacted restart: %+v, err %v", snap, err)
	}
	waitStatus(t, m2, pending.ID, StatusDone)
	res, _, err := m2.Result(pending.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Errorf("resumed campaign produced %d records, want 4", len(res.Records))
	}
}

// TestStartedAtSurvivesCompaction: the start time of a finished job
// survives the compaction at Close and a restart, so its queued and run
// durations can still be told apart. A store written before terminal
// records carried the start time (its terminal record holds the
// retired "spans" digest instead) still replays, taking the start time
// from the running record.
func TestStartedAtSurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s1, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(s1, ManagerOptions{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.Submit(Spec{Kind: KindOptimize, System: sysJSON(t, 2, 5),
		Algorithms: []string{"bbc"}, Tuning: quickTuning()})
	if err != nil {
		t.Fatal(err)
	}
	before := waitStatus(t, m1, job.ID, StatusDone)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if recs, err := readRecords(path); err != nil || len(recs) != 2 {
		t.Fatalf("compacted log: %d records (err %v), want submit + done", len(recs), err)
	}
	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	after, err := newTestManager(t, s2, ManagerOptions{Workers: 1}).Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.StartedAt.IsZero() || !after.StartedAt.Equal(before.StartedAt) || !after.FinishedAt.Equal(before.FinishedAt) {
		t.Errorf("after restart started/finished = %v/%v, want %v/%v",
			after.StartedAt, after.FinishedAt, before.StartedAt, before.FinishedAt)
	}

	legacy := filepath.Join(t.TempDir(), "legacy.jsonl")
	lines := `{"type":"submit","id":"j-old","time":"2026-01-02T03:04:00Z","spec":{"kind":"optimize"}}
{"type":"status","id":"j-old","time":"2026-01-02T03:04:05Z","status":"running"}
{"type":"status","id":"j-old","time":"2026-01-02T03:04:09Z","status":"done","spans":[{"name":"job.queued","duration_us":5000000},{"name":"job.run","duration_us":4000000}]}
`
	if err := os.WriteFile(legacy, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewFileStore(legacy)
	if err != nil {
		t.Fatal(err)
	}
	old, err := newTestManager(t, s3, ManagerOptions{Workers: 1}).Get("j-old")
	if err != nil {
		t.Fatal(err)
	}
	if old.Status != StatusDone || old.FinishedAt.Sub(old.StartedAt) != 4*time.Second || old.StartedAt.Sub(old.SubmittedAt) != 5*time.Second {
		t.Errorf("legacy job replayed as %+v", old)
	}
}

// TestPeriodicCompaction: with a CompactInterval the janitor rewrites
// the store in the background — no Close needed.
func TestPeriodicCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	fatHistory(t, path, 8, 512)
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	newTestManager(t, s, ManagerOptions{
		Workers: 1, CompactInterval: 20 * time.Millisecond,
		Retention: RetentionPolicy{MaxTerminal: 1}, Metrics: NewMetrics(reg),
	})
	deadline := time.Now().Add(time.Minute)
	for {
		if scrapeSeries(t, reg, "flexray_store_compactions_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never compacted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	// 7 tombstones + 1 live job (submit+done).
	if len(recs) != 9 {
		t.Fatalf("periodically compacted log has %d records, want 9", len(recs))
	}
}

// TestJanitorRunsAllDuties: one manager's background loop expires a
// silent worker's lease, evicts a terminal job past MaxAge and
// compacts the store, all on the same ticker.
func TestJanitorRunsAllDuties(t *testing.T) {
	reg := obs.NewRegistry()
	store, _ := tempStore(t)
	m := newTestManager(t, store, ManagerOptions{
		Workers: 1, LeaseSystems: 1, LeaseTTL: 100 * time.Millisecond,
		Retention:       RetentionPolicy{MaxAge: 200 * time.Millisecond},
		CompactInterval: 50 * time.Millisecond,
		Metrics:         NewMetrics(reg),
	})
	addTerminal(t, m, "j-old", time.Now().Add(-time.Hour), 5)
	job := submitDistributed(t, m, 1)
	g, err := m.ClaimLease("silent")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	// The lease is never renewed.
	var evicted, compacted, requeued bool
	for deadline := time.Now().Add(time.Minute); !evicted || !compacted || !requeued; {
		if time.Now().After(deadline) {
			t.Fatalf("after a minute: evicted=%v compacted=%v requeued=%v", evicted, compacted, requeued)
		}
		time.Sleep(5 * time.Millisecond)
		if !evicted {
			_, err := m.Get("j-old")
			evicted = errors.Is(err, ErrEvicted)
		}
		if !compacted {
			compacted = scrapeSeries(t, reg, "flexray_store_compactions_total") > 0
		}
		if !requeued {
			// The expiry is counted after its store append, which
			// follows the re-queue.
			ls := m.Leases().Leases
			requeued = len(ls) == 1 && ls[0].JobID == job.ID && ls[0].State == "pending" &&
				scrapeSeries(t, reg, "flexray_lease_expired_total") > 0
		}
	}
	if _, _, err := m.Result("j-old"); !errors.Is(err, ErrEvicted) {
		t.Errorf("Result of the evicted job: %v, want ErrEvicted", err)
	}
	if _, err := m.RenewLease(g.LeaseID, "silent"); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("renewing the expired lease: %v, want ErrLeaseStale", err)
	}
	if n := scrapeSeries(t, reg, "flexray_lease_expired_total"); n != 1 {
		t.Errorf("flexray_lease_expired_total %v, want 1", n)
	}
	if j, err := m.Get(job.ID); err != nil || j.Status != StatusRunning {
		t.Errorf("distributed job %+v (err %v), want it still running", j, err)
	}
}

// TestCompactConcurrentSubmit races submissions against compactions:
// every acknowledged job must survive in the store (none lost to a
// rewrite), pinned under -race.
func TestCompactConcurrentSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs may or may not execute while the race runs; either way the
	// snapshot keeps every job's submit record (there is no retention
	// policy), so only a racy rewrite could lose one.
	m, err := NewManager(s, ManagerOptions{Workers: 1, QueueCap: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		var firstErr error
		for {
			select {
			case <-stop:
				compacted <- firstErr
				return
			default:
				if err := m.Compact(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}()
	raw := sysJSON(t, 2, 5)
	var ids []string
	for i := 0; i < 40; i++ {
		j, err := m.Submit(Spec{Kind: KindSweep, System: raw, Priority: i,
			Configs: []json.RawMessage{mustConfig(t, raw)}, Tuning: quickTuning()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	close(stop)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	if err := s2.Replay(func(rec StoreRecord) error {
		if rec.Type == recordSubmit {
			seen[rec.ID] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("acknowledged job %s lost across compaction", id)
		}
	}
}

// mustConfig builds a valid sweep configuration for the system.
func mustConfig(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BBC(sys, quickTuning().Apply(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Config.WriteJSON(&buf, sys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
