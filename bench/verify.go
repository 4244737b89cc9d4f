package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/exp"
	"solarcore/internal/obs"
)

// referenceBody is the result a server must return for spec: the library
// run, marshaled exactly as solard marshals it.
func referenceBody(ctx context.Context, spec solarcore.RunSpec) ([]byte, error) {
	res, err := spec.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("library run of %s: %w", spec.Canonical(), err)
	}
	return json.Marshal(res)
}

// verifyBody compares served bytes with the reference bytes.
func verifyBody(spec solarcore.RunSpec, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served body (%d bytes) differs from the library result (%d bytes)",
			spec.Canonical(), len(got), len(want))
	}
	return nil
}

// verifySweep checks a sweep response's shape: one successful item per
// cell, in request order, each carrying its cell's hash.
func verifySweep(cells []solarcore.RunSpec, resp *client.SweepResponse) error {
	if len(resp.Results) != len(cells) {
		return fmt.Errorf("sweep returned %d items for %d cells", len(resp.Results), len(cells))
	}
	for i, it := range resp.Results {
		switch {
		case it.Error != "":
			return fmt.Errorf("sweep cell %d failed: %s", i, it.Error)
		case it.Hash != cells[i].Hash():
			return fmt.Errorf("sweep cell %d carries hash %q, want %q", i, it.Hash, cells[i].Hash())
		case len(it.Result) == 0:
			return fmt.Errorf("sweep cell %d has no result", i)
		}
	}
	return nil
}

// verifyStream checks the event types of one replayed stream: no gap,
// the count seen when the run was first streamed, and run_end last.
func verifyStream(types []string, want int) error {
	for i, t := range types {
		if t == obs.TypeGap {
			return fmt.Errorf("stream event %d is a gap", i)
		}
	}
	if len(types) != want {
		return fmt.Errorf("stream delivered %d events, the fill saw %d", len(types), want)
	}
	if len(types) == 0 || types[len(types)-1] != obs.TypeRunEnd {
		return errors.New("stream does not end in run_end")
	}
	return nil
}

// readStream drains one event stream, returning the event types in
// order and the time-to-first-event callback's argument via first.
func readStream(s *client.Stream, first func()) ([]string, error) {
	defer func() { _ = s.Close() }()
	var types []string
	for {
		ev, err := s.Next()
		if errors.Is(err, io.EOF) {
			return types, nil
		}
		if err != nil {
			return types, err
		}
		if len(types) == 0 && first != nil {
			first()
		}
		types = append(types, ev.Type)
	}
}

// paperGate applies the six directional checks of the repository's
// paper gate (TestPaperGate) to one grid's headlines.
func paperGate(h exp.HeadlinesResult) error {
	checks := []struct {
		name string
		ok   bool
	}{
		{"utilization in the paper's regime (≥ 0.78)", h.AvgUtilization >= 0.78},
		{"Opt beats RR by ≥ 5%", h.OptOverRR >= 0.05},
		{"Opt beats IC by more than it beats RR", h.OptOverIC > h.OptOverRR},
		{"Opt beats the best fixed budget by ≥ 30%", h.OptOverBestFixed >= 0.30},
		{"best fixed budget below 0.75 of SolarCore", h.BestFixedRatio < 0.75},
		{"Opt at least competitive with Battery-U", h.OptVsBatteryU >= -0.05},
	}
	var errs []error
	for _, c := range checks {
		if !c.ok {
			errs = append(errs, fmt.Errorf("paper gate: %s (headlines %+v)", c.name, h))
		}
	}
	return errors.Join(errs...)
}

// keeper holds the responses of the seeded operation indices, to be
// checked against the library once the measured phase is over.
type keeper struct {
	set map[int]bool

	mu  sync.Mutex
	got map[int]keptBody
}

type keptBody struct {
	spec solarcore.RunSpec
	body []byte
}

func newKeeper(seed int64) *keeper {
	return &keeper{set: checkSet(seed), got: map[int]keptBody{}}
}

// keep records the response of operation i when i is in the check set.
func (k *keeper) keep(i int, spec solarcore.RunSpec, body []byte) {
	if !k.set[i] {
		return
	}
	k.mu.Lock()
	k.got[i] = keptBody{spec: spec, body: append([]byte(nil), body...)}
	k.mu.Unlock()
}

// verify compares every kept response with its reference body and
// returns how many it checked.
func (k *keeper) verify(ctx context.Context) (int, error) {
	k.mu.Lock()
	idx := make([]int, 0, len(k.got))
	for i := range k.got {
		idx = append(idx, i)
	}
	k.mu.Unlock()
	sort.Ints(idx)
	var errs []error
	for _, i := range idx {
		k.mu.Lock()
		kb := k.got[i]
		k.mu.Unlock()
		want, err := referenceBody(ctx, kb.spec)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := verifyBody(kb.spec, kb.body, want); err != nil {
			errs = append(errs, fmt.Errorf("operation %d: %w", i, err))
		}
	}
	if len(idx) == 0 {
		errs = append(errs, errors.New("no response was kept for checking"))
	}
	return len(idx), errors.Join(errs...)
}
