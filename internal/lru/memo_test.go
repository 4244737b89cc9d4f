package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoSharesOneFill starts 16 callers of one cold key while the fill
// is blocked: exactly one leads, the rest join, and all get its value.
func TestDoSharesOneFill(t *testing.T) {
	c := New[string, int](4)
	const callers = 16
	var fills atomic.Int64
	release := make(chan struct{})
	fill := func() (int, error) {
		fills.Add(1)
		<-release
		return 42, nil
	}
	type out struct {
		v    int
		disp Disposition
		err  error
	}
	outs := make(chan out, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, d, err := c.Do("k", nil, fill)
			outs <- out{v, d, err}
		}()
	}
	// Hold the fill until the other callers have had time to park on
	// its flight; a straggler that arrives after it lands hits instead,
	// which leaves the counts below unchanged.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(outs)
	led := 0
	for o := range outs {
		if o.err != nil || o.v != 42 {
			t.Fatalf("caller got %d, %v; want 42, nil", o.v, o.err)
		}
		if o.disp == Led {
			led++
		}
	}
	if got := fills.Load(); got != 1 || led != 1 {
		t.Errorf("%d fills ran and %d callers led, want 1 and 1", got, led)
	}
	if v, d, err := c.Do("k", nil, fill); v != 42 || d != Hit || err != nil {
		t.Errorf("after the fill: Do = %d, %v, %v; want 42, Hit, nil", v, d, err)
	}
}

// TestDoWaiterLeavesOnDone closes a joined caller's done channel while
// the fill runs: the waiter returns ErrAbandoned at once, and the
// leader's value is still stored when its fill lands.
func TestDoWaiterLeavesOnDone(t *testing.T) {
	c := New[string, int](4)
	entered := make(chan struct{})
	release := make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", nil, func() (int, error) {
			close(entered)
			<-release
			return 7, nil
		})
		led <- err
	}()
	<-entered
	done := make(chan struct{})
	close(done)
	_, d, err := c.Do("k", done, func() (int, error) {
		t.Error("a joined caller ran its own fill")
		return 0, nil
	})
	if d != Joined || !errors.Is(err, ErrAbandoned) {
		t.Errorf("waiter with a closed done: %v, %v; want Joined, ErrAbandoned", d, err)
	}
	close(release)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Errorf("Get after the leader landed = %d, %t; want 7, true", v, ok)
	}
}

// TestDoPanickingFill checks a panicking fill: the panic reaches its
// leader, the joined caller gets ErrPanicked, nothing is stored, and
// the next call leads a fresh fill instead of joining a dead flight.
func TestDoPanickingFill(t *testing.T) {
	c := New[string, int](4)
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = c.Do("k", nil, func() (int, error) {
			close(entered)
			<-release
			panic("synthetic fill failure")
		})
	}()
	<-entered
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", nil, func() (int, error) { return 0, nil })
		joined <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner park on the flight
	close(release)
	if r := <-recovered; r == nil {
		t.Error("the leader's panic did not propagate")
	}
	if err := <-joined; !errors.Is(err, ErrPanicked) {
		t.Errorf("joined caller of a panicked fill: %v, want ErrPanicked", err)
	}
	if c.Len() != 0 {
		t.Errorf("a panicked fill stored %d entries", c.Len())
	}
	v, d, err := c.Do("k", nil, func() (int, error) { return 3, nil })
	if v != 3 || d != Led || err != nil {
		t.Errorf("call after the panic: %d, %v, %v; want 3, Led, nil", v, d, err)
	}
}

// TestDoFailedFillNotStored checks an error outcome reaches its caller
// but is not cached: the next call runs the fill again.
func TestDoFailedFillNotStored(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	if _, d, err := c.Do("k", nil, func() (int, error) { return 0, boom }); d != Led || !errors.Is(err, boom) {
		t.Fatalf("failing fill: %v, %v; want Led, boom", d, err)
	}
	if c.Len() != 0 {
		t.Fatalf("a failed fill stored %d entries", c.Len())
	}
	if v, d, err := c.Do("k", nil, func() (int, error) { return 5, nil }); v != 5 || d != Led || err != nil {
		t.Errorf("retry after a failure: %d, %v, %v; want 5, Led, nil", v, d, err)
	}
}

// TestDoHitAllocatesNothing pins the hit path at zero allocations: the
// lookup must not box the key, the value or the fill closure.
func TestDoHitAllocatesNothing(t *testing.T) {
	c := New[string, []byte](4)
	c.Put("k", []byte("v"))
	var sink []byte
	allocs := testing.AllocsPerRun(100, func() {
		v, _, _ := c.Do("k", nil, func() ([]byte, error) { return nil, nil })
		sink = v
	})
	if allocs != 0 {
		t.Errorf("a Do hit allocates %v times, want 0", allocs)
	}
	_ = sink
}
