// Package store is solard's crash-safe durable result layer: a
// disk-backed, content-addressed store of marshaled simulation results
// keyed by solarcore.RunSpec.Hash (DESIGN.md §16). It exists so a
// node's result cache survives crashes and deploys — the serving fleet
// equivalent of internal/fault's graceful-degradation discipline on the
// physics side: bounded, verifiable behavior when the process dies at
// the worst possible moment.
//
// Guarantees:
//
//   - atomic records — every Put writes a CRC32-C-framed record
//     (record.go) to a temp file and renames it into place, so a crash
//     mid-write can leave a stray *.tmp or a torn file, never a
//     half-updated record under a live key;
//   - detect, quarantine, never serve — a record that fails
//     verification on read (or during the boot scan) is moved into the
//     quarantine/ subdirectory and counted; Get reports a miss and the
//     caller recomputes, which is always correct;
//   - bounded disk — a byte budget is enforced with LRU eviction that
//     deletes record files; recency lives only in the process, so every
//     boot, after a clean shutdown or a crash alike, starts in key order;
//   - observable — store_* metrics in an obs.Registry and one JSONL
//     StoreEvent per warm start, quarantine and eviction.
//
// Like every serving package, the store reads no wall clock of its own:
// Config.Clock injects one (cmd/solard passes time.Now) and a nil clock
// reports zero durations.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"solarcore/internal/lru"
	"solarcore/internal/obs"
)

// Store metric names (DESIGN.md §16).
const (
	// MetricHits / MetricMisses count Get lookups by outcome.
	MetricHits   = "store_hits_total"
	MetricMisses = "store_misses_total"
	// MetricQuarantined counts torn or corrupt records detected and
	// moved aside — on boot or on read — instead of being served.
	MetricQuarantined = "store_corrupt_records_quarantined_total"
	// MetricEvictions counts records deleted by byte-budget pressure.
	MetricEvictions = "store_evictions_total"
	// MetricPutErrors counts Put calls that failed to persist.
	MetricPutErrors = "store_put_errors_total"
	// MetricBytes gauges the on-disk record bytes currently indexed.
	MetricBytes = "store_bytes"
	// MetricRecords gauges the record count currently indexed.
	MetricRecords = "store_records"
	// MetricWarmStartMs gauges the boot scan's wall time in milliseconds
	// (zero without a Config.Clock).
	MetricWarmStartMs = "store_warm_start_ms"
)

// Filesystem layout under Config.Dir.
const (
	// recordSuffix marks a live record file: <key>.rec.
	recordSuffix = ".rec"
	// tmpSuffix marks an in-progress write; stray ones are deleted on boot.
	tmpSuffix = ".tmp"
	// quarantineDir collects records that failed verification.
	quarantineDir = "quarantine"
)

// DefaultMaxBytes is the byte budget when Config.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// Config tunes a Store. Dir is required.
type Config struct {
	// Dir is the record directory; Open creates it (and quarantine/).
	Dir string
	// MaxBytes bounds the summed record-file sizes (default
	// DefaultMaxBytes). The newest record is always kept, so one
	// oversized result degrades the budget rather than thrashing.
	MaxBytes int64
	// Registry receives the store_* metrics; nil builds a private one.
	Registry *obs.Registry
	// Events, when non-nil, receives one JSONL StoreEvent per warm
	// start, quarantine and eviction.
	Events *obs.JSONLSink
	// Clock supplies wall time for the warm-start duration. nil is valid
	// — durations report zero — because internal packages must not read
	// the wall clock themselves; cmd/solard injects time.Now.
	Clock func() time.Time
}

// Store is the durable result layer. Build one with Open; it is safe
// for concurrent use. A record is durable once Put returns, so a clean
// shutdown and a crash boot the same way: the next Open loads every
// intact record, in key order.
type Store struct {
	cfg Config
	reg *obs.Registry

	mu    sync.Mutex
	idx   *lru.Cache[string, int64] // key → on-disk record size, recency-ordered
	bytes int64                     // summed record sizes currently indexed

	// Warm-start summary, frozen by Open for callers to report.
	warmRecords     int
	warmQuarantined int
	warmMs          float64
}

// Open scans dir and returns a ready Store: stray temp files are
// deleted, every record is verified (corrupt ones are quarantined, and
// will never be served), recency starts in key order, and the byte
// budget is enforced. The scan cost is one read of every record file —
// warm-start time is published as store_warm_start_ms.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return time.Time{} }
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		cfg: cfg,
		reg: cfg.Registry,
		// Entry count is unbounded by design (MaxBytes is the real limit);
		// the huge capacity is never reached because eviction runs first.
		idx: lru.New[string, int64](1 << 30),
	}
	start := s.cfg.Clock()
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverBudgetLocked()
	s.warmRecords = s.idx.Len()
	if !start.IsZero() {
		s.warmMs = s.cfg.Clock().Sub(start).Seconds() * 1000
	}
	s.reg.Set(MetricWarmStartMs, s.warmMs)
	s.setGaugesLocked()
	s.event(obs.StoreEvent{Op: obs.StoreOpWarmStart, Records: s.warmRecords,
		Bytes: s.bytes, DurMs: s.warmMs})
	s.mu.Unlock()
	return s, nil
}

// scan loads the record directory into the index: verify every record,
// quarantine failures and delete stray temp files. os.ReadDir returns
// entries sorted by file name, so every boot indexes records in key
// order, the last one warmest.
func (s *Store) scan() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: scan dir: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			// quarantine/ and anything else a human parked here.
		case strings.HasSuffix(name, tmpSuffix):
			// A crash mid-Put: the rename never happened, the live key (if
			// any) still points at its previous intact record.
			_ = os.Remove(filepath.Join(s.cfg.Dir, name))
		case strings.HasSuffix(name, recordSuffix):
			key := strings.TrimSuffix(name, recordSuffix)
			if !validKey(key) {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, name))
			if err != nil {
				continue
			}
			if _, derr := DecodeRecord(raw); derr != nil {
				s.quarantineLocked(key, 0, derr)
				continue
			}
			s.idx.Put(key, int64(len(raw)))
			s.bytes += int64(len(raw))
		}
	}
	return nil
}

// Close returns nil. It persists nothing because a record is durable
// once Put returns; it stays so callers can treat a Store like any
// other closable resource.
func (s *Store) Close() error { return nil }

// Get returns the verified payload stored under key and promotes its
// recency. A record that fails verification is quarantined and reported
// as a miss — corrupt bytes are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.idx.Get(key)
	if !ok {
		return s.missLocked()
	}
	raw, err := os.ReadFile(s.recordPath(key))
	if err != nil {
		// The file vanished underneath the index (operator cleanup);
		// drop the entry and recompute.
		s.idx.Remove(key)
		s.bytes -= size
		s.setGaugesLocked()
		return s.missLocked()
	}
	payload, err := DecodeRecord(raw)
	if err != nil {
		s.quarantineLocked(key, size, err)
		return s.missLocked()
	}
	s.reg.Add(MetricHits, 1)
	return payload, true
}

// missLocked counts one miss (single registration site) and returns the
// miss result.
func (s *Store) missLocked() ([]byte, bool) {
	s.reg.Add(MetricMisses, 1)
	return nil, false
}

// Put persists payload under key: encode, write <key>.rec.tmp, rename
// into place, then enforce the byte budget. A key already present is a
// no-op beyond a recency promotion — records are content-addressed, so
// identical keys hold identical bytes.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx.Get(key); ok {
		return nil
	}
	rec := EncodeRecord(payload)
	if err := s.writeRecordLocked(key, rec); err != nil {
		s.reg.Add(MetricPutErrors, 1)
		return err
	}
	s.idx.Put(key, int64(len(rec)))
	s.bytes += int64(len(rec))
	s.evictOverBudgetLocked()
	s.setGaugesLocked()
	return nil
}

// writeRecordLocked performs the atomic temp-file+rename write, syncing
// the temp file before the rename so the published name never points at
// buffered-but-unwritten bytes.
func (s *Store) writeRecordLocked(key string, rec []byte) error {
	path := s.recordPath(key)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create temp record: %w", err)
	}
	if _, err := f.Write(rec); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write record: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: sync record: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: close record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: publish record: %w", err)
	}
	return nil
}

// evictOverBudgetLocked deletes least-recently-used record files until
// the byte budget holds, always keeping the newest record.
func (s *Store) evictOverBudgetLocked() {
	for s.bytes > s.cfg.MaxBytes && s.idx.Len() > 1 {
		key, size, ok := s.idx.Oldest()
		if !ok {
			return
		}
		_ = os.Remove(s.recordPath(key))
		s.idx.Remove(key)
		s.bytes -= size
		s.reg.Add(MetricEvictions, 1)
		s.event(obs.StoreEvent{Op: obs.StoreOpEvict, Key: key, Bytes: s.bytes})
	}
}

// quarantineLocked moves a failed record into quarantine/ (deleting it
// if even the move fails), drops it from the index, and records the one
// counter and event for both detection paths (boot scan and Get).
func (s *Store) quarantineLocked(key string, size int64, cause error) {
	path := s.recordPath(key)
	if err := os.Rename(path, filepath.Join(s.cfg.Dir, quarantineDir, key+recordSuffix)); err != nil {
		_ = os.Remove(path)
	}
	if s.idx.Remove(key) {
		s.bytes -= size
		s.setGaugesLocked()
	}
	s.warmQuarantined++ // meaningful during Open; harmless after
	s.reg.Add(MetricQuarantined, 1)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	s.event(obs.StoreEvent{Op: obs.StoreOpQuarantine, Key: key, Detail: detail})
}

// Len returns the indexed record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Len()
}

// Bytes returns the summed on-disk size of indexed records.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// WarmStart reports the boot scan's outcome: records loaded, corrupt
// records quarantined, and the scan's wall time in milliseconds.
func (s *Store) WarmStart() (records, quarantined int, ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmRecords, s.warmQuarantined, s.warmMs
}

// setGaugesLocked mirrors the index into the two gauges (single Set
// site per name).
func (s *Store) setGaugesLocked() {
	s.reg.Set(MetricBytes, float64(s.bytes))
	s.reg.Set(MetricRecords, float64(s.idx.Len()))
}

// event emits one JSONL store event when a sink is configured.
func (s *Store) event(ev obs.StoreEvent) {
	if s.cfg.Events != nil {
		s.cfg.Events.On(obs.Event{Type: obs.TypeStore, Store: &ev})
	}
}

// recordPath maps a key to its record file.
func (s *Store) recordPath(key string) string {
	return filepath.Join(s.cfg.Dir, key+recordSuffix)
}

// validKey accepts the hex RunSpec.Hash alphabet (plus - and _ for
// tests) and nothing that could traverse paths.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
