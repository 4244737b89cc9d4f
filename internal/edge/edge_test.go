package edge

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
)

// batch returns n distinct run requests, day i at index i.
func batch(n int) []client.RunRequest {
	runs := make([]client.RunRequest, n)
	for i := range runs {
		runs[i] = client.RunRequest{RunSpec: solarcore.RunSpec{Day: i, StepMin: 8}}
	}
	return runs
}

// body is the fake result a test cell serves for day.
func body(day int) []byte { return []byte(fmt.Sprintf(`{"day":%d}`, day)) }

// sweepWithin runs Sweep and fails the test if it blocks past a bound.
func sweepWithin(t *testing.T, ctx context.Context, runs []client.RunRequest, workers int, cell Cell, onPanic func()) []client.SweepItem {
	t.Helper()
	done := make(chan []client.SweepItem, 1)
	go func() { done <- Sweep(ctx, runs, workers, cell, onPanic) }()
	select {
	case items := <-done:
		return items
	case <-time.After(5 * time.Second):
		t.Fatal("Sweep blocked")
		return nil
	}
}

func TestSweepContainsPanickingCell(t *testing.T) {
	runs := batch(5)
	var panics atomic.Int32
	items := sweepWithin(t, context.Background(), runs, 2,
		func(_ context.Context, _ string, run client.RunRequest) ([]byte, string, error) {
			if run.Day == 2 {
				panic("synthetic cell failure")
			}
			return body(run.Day), "miss", nil
		}, func() { panics.Add(1) })
	if got := panics.Load(); got != 1 {
		t.Errorf("onPanic fired %d times, want 1", got)
	}
	for i, item := range items {
		if item.Hash != runs[i].Hash() {
			t.Errorf("items[%d].Hash = %s, want %s", i, item.Hash, runs[i].Hash())
		}
		if i == 2 {
			if !strings.Contains(item.Error, "cell panicked: synthetic cell failure") || item.Result != nil || item.Cache != "" {
				t.Errorf("panicking cell = %+v, want only an in-place panic error", item)
			}
			continue
		}
		if item.Error != "" || string(item.Result) != string(body(i)) || item.Cache != "miss" {
			t.Errorf("items[%d] = %+v, want its own result", i, item)
		}
	}
}

func TestSweepCanceledMidFeedMarksUnfedCells(t *testing.T) {
	const n = 20
	runs := batch(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	items := sweepWithin(t, ctx, runs, 1,
		func(_ context.Context, _ string, run client.RunRequest) ([]byte, string, error) {
			ran.Add(1)
			if run.Day == 0 {
				cancel() // the client goes away while the first cell runs
			}
			return body(run.Day), "miss", nil
		}, func() { t.Error("onPanic fired without a panic") })
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	fed := int(ran.Load())
	if fed < 1 || fed > 2 {
		t.Fatalf("%d cells ran after a cancel inside the first, want 1 or 2", fed)
	}
	for i, item := range items {
		if item.Hash != runs[i].Hash() {
			t.Errorf("items[%d].Hash = %s, want %s (request order)", i, item.Hash, runs[i].Hash())
		}
		switch {
		case i < fed:
			if item.Error != "" || string(item.Result) != string(body(i)) {
				t.Errorf("fed items[%d] = %+v, want its result", i, item)
			}
		case item.Error != "sweep canceled: context canceled" || item.Result != nil:
			t.Errorf("unfed items[%d] = %+v, want the cancellation error", i, item)
		}
	}
}

func TestSweepKeepsRequestOrderUnderOutOfOrderCompletion(t *testing.T) {
	const n = 12
	runs := batch(n)
	items := sweepWithin(t, context.Background(), runs, 4,
		func(_ context.Context, key string, run client.RunRequest) ([]byte, string, error) {
			if key != run.Hash() {
				t.Errorf("cell key %s is not the run's hash", key)
			}
			// Early cells finish last.
			time.Sleep(time.Duration(n-run.Day) * time.Millisecond)
			return body(run.Day), "hit", nil
		}, func() { t.Error("onPanic fired without a panic") })
	for i, item := range items {
		if item.Hash != runs[i].Hash() || string(item.Result) != string(body(i)) || item.Error != "" {
			t.Errorf("items[%d] = %+v, want day %d's result in place", i, item, i)
		}
	}
}
