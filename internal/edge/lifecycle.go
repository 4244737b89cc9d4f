package edge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Closer is one teardown step Serve runs after the listener drains.
// Name labels its failure line on stderr ("NAME: <Name>: <error>").
type Closer struct {
	Name  string
	Close func() error
}

// Serve runs one server process from listen to exit and returns its
// exit code. It binds addr and announces "NAME: listening on
// http://ADDR" plus note on stdout (scripts scrape that line), then
// serves h until ctx ends. The shutdown state machine (DESIGN.md §12)
// follows: announce the drain, call drain (the server fails /healthz
// and refuses new work), let in-flight requests finish under the grace
// budget, run closers in the order given, wait for the serve loop, and
// print "NAME: drained, exiting" when every step succeeded. A listen or
// serve failure runs the closers too, ignoring their errors, and
// exits 1.
func Serve(ctx context.Context, name, addr, note string, h http.Handler, grace time.Duration,
	drain func(), stdout, stderr io.Writer, closers ...Closer) int {
	pf := func(w io.Writer, format string, args ...any) {
		_, _ = fmt.Fprintf(w, name+": "+format+"\n", args...)
	}
	abort := func(err error) int {
		for _, c := range closers {
			_ = c.Close()
		}
		pf(stderr, "%v", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return abort(err)
	}
	hs := &http.Server{Handler: h}
	pf(stdout, "listening on http://%s%s", ln.Addr(), note)

	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		// Serve only returns on failure here; Shutdown is the other
		// exit, taken below.
		return abort(err)
	case <-ctx.Done():
	}

	pf(stdout, "signal received, draining (grace %s)", grace)
	drain()
	// The shutdown budget starts now: ctx has ended, so only its values
	// carry over, not its cancellation.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		pf(stderr, "drain incomplete: %v", err)
		code = 1
	}
	for _, c := range closers {
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			pf(stderr, "%s: %v", c.Name, err)
			code = 1
		}
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		pf(stderr, "serve: %v", err)
		code = 1
	}
	if code == 0 {
		pf(stdout, "drained, exiting")
	}
	return code
}
