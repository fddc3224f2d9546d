package jobs

// Durable store model.
//
// A job store is an event log. Its JSONL grammar has four record
// types, one JSON object per line:
//
//	{"type":"submit","id":j,"time":t,"spec":{...}}
//	    — a job enters the system; the spec is stored verbatim.
//	{"type":"status","id":j,"time":t,"status":s,
//	 "error":e?,"progress":{...}?,"result":{...}?,"result_bytes":n?}
//	    — a lifecycle transition. Terminal transitions carry the final
//	      progress and, for "done", the result payload. A "queued"
//	      status record after a "running" one is a shutdown
//	      checkpoint: the job was interrupted and must be re-run.
//	{"type":"evict","id":j,"time":t}
//	    — the retention policy dropped a terminal job; its result is
//	      gone for good and the ID answers 410 Gone, not 404.
//	{"type":"lease","id":j,"time":t,"lease":{"event":e,...}}
//	    — a distributed-campaign lease event for job j (see lease.go).
//	      Only "complete" events matter to replay: they carry a
//	      shard's records, so finished shards survive a coordinator
//	      restart. "expire" and "fail" events record faults and are
//	      ignored on replay, as are the "grant" events older stores
//	      hold — a lease that never completed simply re-queues with
//	      its job.
//
// Replay invariants (see Manager.replay):
//
//   - Records apply in file order; later status records supersede
//     earlier ones, so duplicated records are harmless.
//   - A status record for an unknown ID, an unknown status value, or
//     a submit record without a spec is skipped, not fatal.
//   - A job whose last status is "running" was interrupted by a crash
//     and replays as queued with progress reset — exactly what a
//     graceful shutdown would have checkpointed.
//   - An evict record removes the job (if present) and leaves a
//     tombstone, so eviction survives restarts.
//   - The first lease "complete" per (job, shard) is sticky: later
//     completes, old grant records or out-of-order expiry records
//     never overwrite or resurrect a completed shard. Malformed
//     lease payloads (negative shard, inverted range, record count
//     not matching the range) are skipped, not fatal.
//
// Compaction rewrites the log to a snapshot of live state: one submit
// record per live job (in submission order), a status record where the
// job has progressed beyond queued, one lease "complete" record per
// finished shard of a non-terminal distributed job, and one evict
// record per retained tombstone. Replaying the snapshot reconstructs
// exactly the live
// state, so the records appended after it — the tail — apply cleanly
// on top; startup cost is proportional to live jobs plus the tail, not
// to history. The rewrite is atomic (temp file, fsync, rename): a
// crash mid-compact leaves either the old log or the new snapshot,
// never a mix, and a stale or truncated temp file is ignored (and
// removed) on the next open.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// StoreRecord is one event of a job's durable history; see the record
// grammar at the top of this file. Submit records carry the full spec;
// status records carry a lifecycle transition (terminal ones also the
// final progress and, for done, the result); evict records carry only
// the ID of the dropped job; lease records carry one distributed-shard
// lease event.
type StoreRecord struct {
	Type string    `json:"type"` // "submit" | "status" | "evict" | "lease"
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// submit:
	Spec *Spec `json:"spec,omitempty"`
	// status:
	Status   Status    `json:"status,omitempty"`
	Error    string    `json:"error,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	// ResultBytes is the encoded size of Result, recorded so replay
	// can charge the retention byte budget without re-marshalling
	// every retained result; absent on records written before the
	// field existed (replay falls back to measuring).
	ResultBytes int64 `json:"result_bytes,omitempty"`
	// TraceID/Spans persist the job's trace linkage and lifecycle
	// span summaries with its terminal transition, so span-level
	// timing survives manager restarts even though the in-memory
	// span store does not.
	TraceID string        `json:"trace_id,omitempty"`
	Spans   []SpanSummary `json:"spans,omitempty"`
	// Lease is the payload of a "lease" record: one distributed-shard
	// lease event of the job (see lease.go).
	Lease *LeaseEvent `json:"lease,omitempty"`
}

const (
	recordSubmit = "submit"
	recordStatus = "status"
	recordEvict  = "evict"
	recordLease  = "lease"
)

// Store persists job history for crash recovery. Append must be
// durable before it returns; Replay streams the records present when
// the store was opened, in append order — it is called once, at
// manager startup, and implementations may release the history
// afterwards. Implementations must be safe for concurrent Appends.
//
// Stores may additionally implement Compactor (bounded growth) and
// Sizer (operator visibility); the manager uses both when present.
type Store interface {
	Append(rec StoreRecord) error
	Replay(fn func(rec StoreRecord) error) error
	Close() error
}

// Compactor is the optional compaction capability of a Store: Compact
// atomically replaces the whole history with the given snapshot
// records, so that a subsequent Replay (after reopening) yields the
// snapshot plus whatever was appended after it. Compact must be safe
// against concurrent Appends: an Append may land before or after the
// rewrite, but never be lost.
type Compactor interface {
	Compact(recs []StoreRecord) error
}

// Sizer is the optional size capability of a Store: the current
// on-disk footprint in bytes, for operators alerting on unbounded
// growth.
type Sizer interface {
	Size() (int64, error)
}

// MemStore is an in-memory Store: records survive manager restarts
// within one process (tests, embedding) but not process crashes.
type MemStore struct {
	mu   sync.Mutex
	recs []StoreRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

func (s *MemStore) Append(rec StoreRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	return nil
}

func (s *MemStore) Replay(fn func(rec StoreRecord) error) error {
	s.mu.Lock()
	recs := append([]StoreRecord(nil), s.recs...)
	s.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Compact replaces the in-memory history with the snapshot.
func (s *MemStore) Compact(recs []StoreRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append([]StoreRecord(nil), recs...)
	return nil
}

func (s *MemStore) Close() error { return nil }

// compactSuffix names the temp file a compaction writes next to the
// store before atomically renaming it over the log. A crash
// mid-compact leaves it behind; NewFileStore ignores and removes it,
// replaying the intact original log.
const compactSuffix = ".compact"

// FileStore is an append-only JSONL Store with compaction. Opening
// reads the existing records (tolerating a truncated final line, the
// signature of a crash mid-append, and removing any stale compaction
// temp file); Append writes one JSON line and syncs it to disk before
// returning, so acknowledged transitions survive a kill; Compact
// atomically rewrites the log to a snapshot (see the package notes at
// the top of this file).
type FileStore struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	loaded []StoreRecord
}

// NewFileStore opens (creating if needed) the JSONL store at path.
func NewFileStore(path string) (*FileStore, error) {
	// A temp file left by a crash mid-compact is dead weight: the
	// rename never happened, so the original log is the truth.
	if err := os.Remove(path + compactSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("jobs: remove stale compaction file: %w", err)
	}
	loaded, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	return &FileStore{path: path, f: f, loaded: loaded}, nil
}

// readRecords decodes the JSONL file at path. Decoding stops at the
// first malformed record: a crash mid-append leaves a truncated tail,
// and everything before it is still valid history.
func readRecords(path string) ([]StoreRecord, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: read store: %w", err)
	}
	var recs []StoreRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var rec StoreRecord
		if err := dec.Decode(&rec); err != nil {
			// io.EOF ends a clean file; any other error is a
			// truncated or corrupt tail. Keep the valid prefix
			// either way.
			return recs, nil
		}
		recs = append(recs, rec)
	}
}

func (s *FileStore) Append(rec StoreRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("jobs: store closed")
	}
	if _, err := s.f.Write(data); err != nil {
		return fmt.Errorf("jobs: append store: %w", err)
	}
	return s.f.Sync()
}

func (s *FileStore) Replay(fn func(rec StoreRecord) error) error {
	s.mu.Lock()
	loaded := s.loaded
	// Replay is single-shot: drop the loaded history so a long-lived
	// store does not hold a duplicate in-memory copy of every result
	// (the manager keeps the live ones).
	s.loaded = nil
	s.mu.Unlock()
	for _, rec := range loaded {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Compact atomically replaces the log with the snapshot records: they
// are written to a temp file, fsynced, and renamed over the log, so a
// crash at any point leaves either the complete old log or the
// complete snapshot. Appends arriving during the rewrite block on the
// store mutex and land in the new file.
func (s *FileStore) Compact(recs []StoreRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("jobs: encode snapshot: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("jobs: store closed")
	}
	tmp := s.path + compactSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create snapshot: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: swap snapshot: %w", err)
	}
	// The open append handle still points at the replaced inode;
	// reopen so subsequent appends extend the snapshot. If the reopen
	// fails the store is unusable — appends to the orphaned inode
	// would vanish — so it is closed rather than left misleading.
	nf, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f.Close()
		s.f = nil
		return fmt.Errorf("jobs: reopen after compaction: %w", err)
	}
	s.f.Close()
	s.f = nf
	// Fsync the directory so the rename itself is durable: without it
	// a power loss could resurrect the pre-compaction inode and every
	// append fsynced into the new file since would vanish with it.
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return fmt.Errorf("jobs: sync store directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, committing renames within it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size reports the store file's current size in bytes.
func (s *FileStore) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := os.Stat(s.path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
