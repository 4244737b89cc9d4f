package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	if fed := Each(context.Background(), n, 7, func(i int) { counts[i].Add(1) }); fed != n {
		t.Fatalf("fed = %d, want %d", fed, n)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	Each(context.Background(), 60, workers, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak concurrency %d: the pool never ran two calls at once", p)
	}
}

func TestEachStopsFeedingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var ran atomic.Int32
	var once sync.Once
	start := time.Now()
	fed := Each(ctx, n, 2, func(int) {
		ran.Add(1)
		once.Do(cancel)
		time.Sleep(time.Millisecond)
	})
	if fed >= n {
		t.Fatalf("fed = %d after cancel, want < %d", fed, n)
	}
	if got := int(ran.Load()); got != fed {
		t.Errorf("ran %d calls, want exactly fed = %d", got, fed)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Each took %v after cancellation, want prompt return", d)
	}

	// An already-ended context feeds nothing.
	if fed := Each(ctx, n, 4, func(int) { t.Error("fn ran under a canceled context") }); fed != 0 {
		t.Errorf("fed = %d under a canceled context, want 0", fed)
	}
}

func TestEachZeroRunsNothing(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		if fed := Each(context.Background(), 0, workers, func(int) { t.Error("fn ran for n = 0") }); fed != 0 {
			t.Errorf("workers=%d: fed = %d, want 0", workers, fed)
		}
	}
}
