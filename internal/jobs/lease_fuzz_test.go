package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
)

// fuzzSeedLine builds one JSONL store line; helper for the seed corpus.
func fuzzSeedLine(t *testing.F, rec StoreRecord) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// FuzzLeaseStoreReplay replays arbitrary store file contents through a
// real FileStore + Manager. Whatever the bytes — truncated tails,
// duplicate grants, out-of-order expiry, conflicting completes,
// malformed ranges — startup must not panic, and every shard result
// that survives replay must satisfy the geometry invariants (a
// completed shard can never be resurrected into an inconsistent one).
func FuzzLeaseStoreReplay(f *testing.F) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spec := &Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 2}, AppsPerCount: 1, Seed: 3, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     &Tuning{DYNGridCap: 8, SlotCountCap: 2, SlotLenSteps: 2, MaxEvaluations: 20, SAIterations: 10},
		Distribute: true,
	}
	lease := func(id string, ev LeaseEvent) StoreRecord {
		return StoreRecord{Type: recordLease, ID: id, Time: now, Lease: &ev}
	}
	complete := func(id string, shard, lo, hi, n int, name string) StoreRecord {
		recs := make([]campaign.Record, n)
		for i := range recs {
			recs[i] = campaign.Record{Index: lo + i, Name: name}
		}
		return lease(id, LeaseEvent{Event: leaseEventComplete, Shard: shard, Lo: lo, Hi: hi, Records: recs})
	}
	submit := fuzzSeedLine(f, StoreRecord{Type: recordSubmit, ID: "j-1", Time: now, Spec: spec})

	// A clean history as older coordinators wrote it (they stored a
	// "grant" line per claim): submit, grant, complete.
	f.Add(append(append(append([]byte{}, submit...),
		fuzzSeedLine(f, lease("j-1", LeaseEvent{Event: "grant", LeaseID: "l-1", Shard: 0, Lo: 0, Hi: 1, Worker: "w", Attempt: 1}))...),
		fuzzSeedLine(f, complete("j-1", 0, 0, 1, 1, "sys"))...))
	// Duplicate grants and out-of-order expiry around a complete.
	f.Add(append(append(append(append(append([]byte{}, submit...),
		fuzzSeedLine(f, lease("j-1", LeaseEvent{Event: "grant", LeaseID: "l-1", Shard: 0, Lo: 0, Hi: 1, Worker: "a"}))...),
		fuzzSeedLine(f, lease("j-1", LeaseEvent{Event: "grant", LeaseID: "l-2", Shard: 0, Lo: 0, Hi: 1, Worker: "b"}))...),
		fuzzSeedLine(f, complete("j-1", 0, 0, 1, 1, "sys"))...),
		fuzzSeedLine(f, lease("j-1", LeaseEvent{Event: leaseEventExpire, LeaseID: "l-1", Shard: 0, Lo: 0, Hi: 1, Worker: "a"}))...))
	// Conflicting duplicate completes plus malformed geometry.
	f.Add(append(append(append(append([]byte{}, submit...),
		fuzzSeedLine(f, complete("j-1", 0, 0, 1, 1, "first"))...),
		fuzzSeedLine(f, complete("j-1", 0, 0, 1, 1, "second"))...),
		fuzzSeedLine(f, complete("j-1", 1, 2, 1, 1, "inverted"))...))
	// Complete for an unknown job, then a truncated tail.
	f.Add(append(append(append([]byte{}, submit...),
		fuzzSeedLine(f, complete("j-ghost", 0, 0, 1, 1, "sys"))...),
		[]byte(`{"type":"lease","id":"j-1","lease":{"event":"comp`)...))
	// Raw garbage.
	f.Add([]byte("not json at all\n{\"type\":\"lease\"}\n\x00\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := NewFileStore(path)
		if err != nil {
			// An unopenable file is a legitimate answer, not a crash.
			return
		}
		m, err := NewManager(store, ManagerOptions{
			Workers: 1, LeaseSystems: 1, LeaseTTL: time.Hour,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			store.Close()
			return
		}
		m.mu.Lock()
		for id, byShard := range m.shardResults {
			j := m.jobs[id]
			if j == nil || j.status.Terminal() {
				t.Errorf("job %q: shard results retained for a missing or terminal job", id)
			}
			for idx, sr := range byShard {
				if idx < 0 || sr.lo < 0 || sr.hi < sr.lo || len(sr.records) != sr.hi-sr.lo {
					t.Errorf("job %q shard %d: inconsistent geometry lo=%d hi=%d records=%d",
						id, idx, sr.lo, sr.hi, len(sr.records))
				}
				for i, rec := range sr.records {
					if rec.Index != sr.lo+i {
						t.Errorf("job %q shard %d: record %d carries index %d, want %d",
							id, idx, i, rec.Index, sr.lo+i)
					}
				}
			}
		}
		m.mu.Unlock()
		// The lease endpoints must stay callable on whatever replayed.
		if _, err := m.ClaimLease("fuzz-worker"); err != nil {
			t.Errorf("claim after replay: %v", err)
		}
		m.Leases()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("close after replay: %v", err)
		}
	})
}
