// Package sigctx is the one place the CLIs wire POSIX shutdown signals
// into a context. cmd/solard and cmd/solargate (graceful HTTP drain),
// cmd/solarfleet (worker-pool cancellation with partial-result flush)
// and cmd/solarload (stop firing, report what completed) share it so
// all react to SIGINT and SIGTERM identically: first signal cancels the
// context cooperatively, second signal kills the process via Go's
// default disposition (signal.Reset inside stop).
package sigctx

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// WithShutdown returns a copy of parent canceled on SIGINT or SIGTERM.
// Call stop to release the signal registration; after stop (or after the
// first signal) a subsequent signal takes the process down immediately.
func WithShutdown(parent context.Context) (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
