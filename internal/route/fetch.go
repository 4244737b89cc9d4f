package route

import (
	"context"
	"errors"
	"time"

	"solarcore/client"
)

// attemptResult carries one upstream attempt's outcome back to the
// fetch loop.
type attemptResult struct {
	res   *client.RunResult
	err   error
	b     *backend
	hedge bool // launched by the hedge timer
	retry bool // launched by the retry path
}

// fetchRun resolves one run against the fleet. It routes to the key's
// ring owner, hedges to the next distinct owner after hedgeDelay if the
// primary is still silent, and fails over on retryable errors with
// capped backoff. The first success wins and every other attempt is
// canceled through the shared attempt context. Returns the winning
// result, its route disposition (client.RoutePrimary/Hedged/Retried)
// and the winning backend's base URL.
func (rt *Router) fetchRun(ctx context.Context, key string, req client.RunRequest) (*client.RunResult, string, string, error) {
	cands := rt.ownersFor(key)
	if len(cands) == 0 {
		return nil, "", "", ErrNoBackends
	}

	// One context covers every attempt: returning (success, fatal error,
	// caller gone) cancels the losers mid-flight.
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// Buffered to the worst-case attempt count so a finishing attempt
	// never blocks after the fetch loop has returned.
	results := make(chan attemptResult, len(cands)+rt.cfg.MaxRetries+1)

	launch := func(b *backend, hedge, retry bool, delay time.Duration) {
		go func() {
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-actx.Done():
					t.Stop()
					// The loop has returned (or the caller is gone); the
					// buffered send below would only be dropped, so skip
					// the attempt entirely.
					results <- attemptResult{err: actx.Err(), b: b, hedge: hedge, retry: retry}
					return
				case <-t.C:
				}
				t.Stop()
			}
			start := rt.cfg.Clock()
			res, err := b.cli.Run(actx, req)
			if err == nil && !start.IsZero() {
				ms := rt.cfg.Clock().Sub(start).Seconds() * 1000
				rt.lat.add(ms)
				rt.reg.Observe(MetricUpstreamMs, ms)
			}
			results <- attemptResult{res: res, err: err, b: b, hedge: hedge, retry: retry}
		}()
	}

	next := 0 // next candidate index to launch
	launch(cands[next], false, false, 0)
	next++
	inflight := 1
	retries := 0

	// The hedge timer arms only when a second distinct owner exists —
	// hedging to the same node would just double its load.
	var hedgeC <-chan time.Time
	if next < len(cands) {
		t := time.NewTimer(rt.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, "", "", ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				rt.reg.Add(MetricHedges, 1)
				launch(cands[next], true, false, 0)
				next++
				inflight++
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				disp := client.RoutePrimary
				switch {
				case r.hedge:
					rt.reg.Add(MetricHedgeWins, 1)
					disp = client.RouteHedged
				case r.retry:
					disp = client.RouteRetried
				}
				return r.res, disp, r.b.name, nil
			}
			if !retryable(r.err) {
				// Deterministic failures (400s, caller cancellation) would
				// repeat identically on another node; surface them now.
				return nil, "", "", r.err
			}
			lastErr = r.err
			if retries < rt.cfg.MaxRetries && next < len(cands) {
				retries++
				rt.reg.Add(MetricRetries, 1)
				launch(cands[next], false, true, rt.backoff(retries, r.err))
				next++
				inflight++
			} else if inflight == 0 {
				return nil, "", "", lastErr
			}
		}
	}
}

// retryable reports whether err is worth another owner or a fresh
// connection, for /v1/run and /v1/stream alike: transient upstream
// statuses (429/5xx), damaged bytes and transport failures are;
// deterministic rejections (4xx, and Status-0 SSE error frames that
// report a failed run) and caller cancellation are not.
func retryable(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	// A failed body checksum means the bytes were damaged in flight, not
	// that the computation is wrong: the engine is deterministic, so the
	// next owner reproduces the result byte-identically.
	var ie *client.IntegrityError
	if errors.As(err, &ie) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Anything else is a transport-level failure (refused, reset, EOF,
	// a malformed SSE frame): exactly the class fail-over exists for.
	return true
}

// backoffCap caps the retry backoff, Retry-After hints included.
const backoffCap = time.Second

// backoff computes the delay before retry attempt n (1-based): capped
// exponential from BackoffBase, raised to the upstream's Retry-After
// hint when that is longer, never above backoffCap.
func (rt *Router) backoff(n int, err error) time.Duration {
	d := rt.cfg.BackoffBase << (n - 1)
	var ae *client.APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d
}
