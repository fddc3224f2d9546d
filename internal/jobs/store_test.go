package jobs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []StoreRecord{
		{Type: recordSubmit, ID: "j-1", Time: time.Now().UTC(), Spec: &Spec{Kind: KindOptimize, Priority: 3}},
		{Type: recordStatus, ID: "j-1", Time: time.Now().UTC(), Status: StatusRunning},
		{Type: recordStatus, ID: "j-1", Time: time.Now().UTC(), Status: StatusDone,
			Progress: &Progress{Total: 1, Completed: 1}, Result: &Result{}},
	}
	for _, rec := range recs {
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
	defer s2.Close()
	var got []StoreRecord
	if err := s2.Replay(func(rec StoreRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Type != recs[i].Type || rec.ID != recs[i].ID || rec.Status != recs[i].Status {
			t.Errorf("record %d: got (%s %s %s), want (%s %s %s)",
				i, rec.Type, rec.ID, rec.Status, recs[i].Type, recs[i].ID, recs[i].Status)
		}
	}
	if got[0].Spec == nil || got[0].Spec.Priority != 3 {
		t.Errorf("submit record lost its spec: %+v", got[0].Spec)
	}
	if got[2].Progress == nil || got[2].Progress.Completed != 1 {
		t.Errorf("terminal record lost its progress: %+v", got[2].Progress)
	}
}

// TestFileStoreTruncatedTail: a crash mid-append leaves a partial
// final line; opening the store keeps the valid prefix.
func TestFileStoreTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(StoreRecord{Type: recordSubmit, ID: "j-1", Spec: &Spec{Kind: KindOptimize}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"status","id":"j-1","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var n int
	if err := s2.Replay(func(StoreRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replayed %d records after truncated tail, want 1", n)
	}
}

// TestFileStoreCompact: Compact atomically replaces the log with the
// snapshot, and later appends extend it — a reopened store replays
// snapshot + tail, in order.
func TestFileStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Append(StoreRecord{Type: recordStatus, ID: "j-old", Status: StatusRunning}); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := []StoreRecord{
		{Type: recordEvict, ID: "j-gone", Time: time.Now().UTC()},
		{Type: recordSubmit, ID: "j-live", Time: time.Now().UTC(), Spec: &Spec{Kind: KindOptimize}},
	}
	if err := s.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	// The tail: an append after the rewrite.
	if err := s.Append(StoreRecord{Type: recordStatus, ID: "j-live", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []string
	if err := s2.Replay(func(rec StoreRecord) error {
		got = append(got, rec.Type+"/"+rec.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"evict/j-gone", "submit/j-live", "status/j-live"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

// TestFileStoreCrashMidCompaction: a crash between writing the
// snapshot temp file and the atomic rename leaves a (possibly
// truncated) temp file behind; opening the store must ignore and
// remove it, replaying the original log intact.
func TestFileStoreCrashMidCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []StoreRecord{
		{Type: recordSubmit, ID: "j-1", Time: time.Now().UTC(), Spec: &Spec{Kind: KindOptimize}},
		{Type: recordStatus, ID: "j-1", Time: time.Now().UTC(), Status: StatusDone, Result: &Result{}},
	}
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The would-be snapshot, cut off mid-record.
	tmp := path + compactSuffix
	if err := os.WriteFile(tmp, []byte(`{"type":"submit","id":"j-2","spe`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived open: %v", err)
	}
	var got []string
	if err := s2.Replay(func(rec StoreRecord) error {
		got = append(got, rec.ID+"/"+string(rec.Status))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "j-1/" || got[1] != "j-1/done" {
		t.Errorf("original log not replayed intact: %v", got)
	}
}
