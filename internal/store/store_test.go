package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"solarcore/internal/obs"
)

func openT(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := openT(t, Config{Registry: reg})
	body := []byte(`{"solar_wh":400.125}`)
	if err := s.Put("aaa111", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("aaa111")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %t; want the stored payload", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) reported a hit")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricHits] != 1 || snap.Counters[MetricMisses] != 1 {
		t.Errorf("hits=%v misses=%v, want 1/1",
			snap.Counters[MetricHits], snap.Counters[MetricMisses])
	}
	if snap.Gauges[MetricRecords] != 1 {
		t.Errorf("%s gauge = %v, want 1", MetricRecords, snap.Gauges[MetricRecords])
	}
}

func TestRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. Every record must still load.
	s2 := openT(t, Config{Dir: dir})
	if s2.Len() != 5 {
		t.Fatalf("reopened store holds %d records, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key%d", i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Errorf("key%d = %q, %t after reopen", i, got, ok)
		}
	}
}

// TestCleanAndCrashShutdownBootAlike applies one Put/Get history to two
// directories, closes one cleanly and abandons the other (a crash), and
// requires both to reopen identically: same record count and bytes, and
// under a shrunk budget the same survivors. Close leaves nothing on disk
// beyond the records themselves.
func TestCleanAndCrashShutdownBootAlike(t *testing.T) {
	payload := bytes.Repeat([]byte("w"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	history := func(dir string) *Store {
		s := openT(t, Config{Dir: dir})
		for _, k := range keys {
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
		}
		// Promote the oldest keys: in-process recency now differs from key
		// order, and must not leak into the next boot either way.
		for _, k := range []string{"k1", "k0"} {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("%s missing before shutdown", k)
			}
		}
		return s
	}
	cleanDir, crashDir := t.TempDir(), t.TempDir()
	if err := history(cleanDir).Close(); err != nil {
		t.Fatal(err)
	}
	history(crashDir) // abandoned without Close

	entries, err := os.ReadDir(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() == quarantineDir || !e.IsDir() && strings.HasSuffix(e.Name(), recordSuffix) {
			continue
		}
		t.Errorf("Close left %q in the store directory", e.Name())
	}

	clean, crash := openT(t, Config{Dir: cleanDir}), openT(t, Config{Dir: crashDir})
	if clean.Len() != crash.Len() || clean.Bytes() != crash.Bytes() {
		t.Errorf("reopen: clean len=%d bytes=%d, crash len=%d bytes=%d",
			clean.Len(), clean.Bytes(), crash.Len(), crash.Bytes())
	}
	if clean.Len() != len(keys) {
		t.Errorf("reopen loaded %d records, want %d", clean.Len(), len(keys))
	}

	survivors := func(dir string) []string {
		s := openT(t, Config{Dir: dir, MaxBytes: 2 * recSize})
		var out []string
		for _, k := range keys {
			if _, ok := s.Get(k); ok {
				out = append(out, k)
			}
		}
		return out
	}
	got, want := survivors(cleanDir), survivors(crashDir)
	if strings.Join(got, ",") != strings.Join(want, ",") || len(got) != 2 {
		t.Errorf("survivors under a 2-record budget: clean %v, crash %v; want the same two", got, want)
	}
}

func TestCorruptRecordQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var sinkBuf bytes.Buffer
	sink := obs.NewJSONLSink(&sinkBuf)
	s := openT(t, Config{Dir: dir, Registry: reg, Events: sink})
	if err := s.Put("victim", []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk behind the store's back.
	path := filepath.Join(dir, "victim"+recordSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeaderLen+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.Get("victim"); ok {
		t.Fatalf("corrupt record served: %q", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt record still in the live directory")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "victim"+recordSuffix)); err != nil {
		t.Errorf("corrupt record not quarantined: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricQuarantined] != 1 {
		t.Errorf("%s = %v, want 1", MetricQuarantined, snap.Counters[MetricQuarantined])
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("index still holds the quarantined record: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sinkBuf.String(), obs.StoreOpQuarantine) {
		t.Error("no quarantine event emitted")
	}
}

func TestBootScanQuarantinesTornRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	if err := s.Put("whole", []byte("intact payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", []byte("this record will be truncated")); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: truncate one record mid-payload and leave a stray
	// temp file from an interrupted Put.
	tornPath := filepath.Join(dir, "torn"+recordSuffix)
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "half"+recordSuffix+tmpSuffix)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2 := openT(t, Config{Dir: dir, Registry: reg})
	records, quarantined, _ := s2.WarmStart()
	if records != 1 || quarantined != 1 {
		t.Errorf("warm start = %d records, %d quarantined; want 1/1", records, quarantined)
	}
	if _, ok := s2.Get("torn"); ok {
		t.Error("torn record served after boot scan")
	}
	if got, ok := s2.Get("whole"); !ok || string(got) != "intact payload" {
		t.Errorf("intact record lost: %q, %t", got, ok)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray temp file survived the boot scan")
	}
	if snap := reg.Snapshot(); snap.Counters[MetricQuarantined] != 1 {
		t.Errorf("%s = %v, want 1", MetricQuarantined, snap.Counters[MetricQuarantined])
	}
}

func TestByteBudgetEvictsOldestFiles(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	payload := bytes.Repeat([]byte("x"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	s := openT(t, Config{Dir: dir, MaxBytes: 3 * recSize, Registry: reg})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d under a 3-record budget, want 3", s.Len())
	}
	if s.Bytes() != 3*recSize {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), 3*recSize)
	}
	for i, wantOK := range []bool{false, false, true, true, true} {
		key := fmt.Sprintf("key%d", i)
		if _, ok := s.Get(key); ok != wantOK {
			t.Errorf("Get(%s) = %t, want %t", key, ok, wantOK)
		}
		if _, err := os.Stat(filepath.Join(dir, key+recordSuffix)); (err == nil) != wantOK {
			t.Errorf("%s file presence = %v, want present=%t", key, err, wantOK)
		}
	}
	if snap := reg.Snapshot(); snap.Counters[MetricEvictions] != 2 {
		t.Errorf("%s = %v, want 2", MetricEvictions, snap.Counters[MetricEvictions])
	}
}

func TestOversizedNewestRecordIsKept(t *testing.T) {
	s := openT(t, Config{MaxBytes: 64})
	big := bytes.Repeat([]byte("y"), 1000)
	if err := s.Put("small", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("big"); !ok {
		t.Error("newest record evicted itself; the budget must degrade, not thrash")
	}
	if _, ok := s.Get("small"); ok {
		t.Error("small record survived a blown budget")
	}
}

func TestPutRejectsUnsafeKeys(t *testing.T) {
	s := openT(t, Config{})
	for _, key := range []string{"", "../escape", "a/b", "a.b", strings.Repeat("k", 129)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
	}
}

func TestPutSameKeyIsIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	s := openT(t, Config{Registry: reg})
	body := []byte("same bytes, same key")
	for i := 0; i < 3; i++ {
		if err := s.Put("dup", body); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after duplicate puts, want 1", s.Len())
	}
	wantBytes := int64(recordHeaderLen + len(body))
	if s.Bytes() != wantBytes {
		t.Errorf("Bytes = %d after duplicate puts, want %d", s.Bytes(), wantBytes)
	}
}

func TestWarmStartMetricsWithClock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// A fake clock that advances 3ms per reading.
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(3 * time.Millisecond)
		return now
	}
	reg := obs.NewRegistry()
	s2 := openT(t, Config{Dir: dir, Registry: reg, Clock: clock})
	_, _, ms := s2.WarmStart()
	if ms <= 0 {
		t.Errorf("warm-start ms = %v with a ticking clock, want > 0", ms)
	}
	snap := reg.Snapshot()
	if snap.Gauges[MetricWarmStartMs] != ms {
		t.Errorf("%s gauge = %v, want %v", MetricWarmStartMs, snap.Gauges[MetricWarmStartMs], ms)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open with no Dir succeeded")
	}
}

func TestShrunkBudgetEvictsOnOpen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("z"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	s := openT(t, Config{Dir: dir, MaxBytes: 10 * recSize})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, Config{Dir: dir, MaxBytes: 2 * recSize})
	if s2.Len() != 2 {
		t.Errorf("Len = %d after reopening under a smaller budget, want 2", s2.Len())
	}
	// The survivors are the most recent: key2, key3.
	for i, wantOK := range []bool{false, false, true, true} {
		if _, ok := s2.Get(fmt.Sprintf("key%d", i)); ok != wantOK {
			t.Errorf("key%d present = %t after budget shrink, want %t", i, ok, wantOK)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key%d", (seed*7+i)%16)
				if i%2 == 0 {
					if err := s.Put(key, []byte("payload-"+key)); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := s.Get(key); ok && string(got) != "payload-"+key {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 16 {
		t.Errorf("Len = %d, want at most 16 distinct keys", s.Len())
	}
}
