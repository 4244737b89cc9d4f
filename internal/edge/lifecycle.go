package edge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Serve runs one server process from listen to exit and returns its
// exit code. It binds addr and announces "NAME: listening on
// http://ADDR" plus note on stdout (scripts scrape that line), then
// serves h until ctx ends. The shutdown state machine (DESIGN.md §12)
// follows: announce the drain, call drain (the server fails /healthz
// and refuses new work), let in-flight requests finish under the grace
// budget, run closeFn (a failure prints "NAME: close: <error>"), wait
// for the serve loop, and print "NAME: drained, exiting" when every step
// succeeded. A listen or serve failure runs closeFn too, ignoring its
// error, and exits 1. Connections that have not sent a request are
// closed when the drain starts (see silentConns).
func Serve(ctx context.Context, name, addr, note string, h http.Handler, grace time.Duration,
	drain func(), stdout, stderr io.Writer, closeFn func() error) int {
	pf := func(w io.Writer, format string, args ...any) {
		_, _ = fmt.Fprintf(w, name+": "+format+"\n", args...)
	}
	abort := func(err error) int {
		_ = closeFn()
		pf(stderr, "%v", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return abort(err)
	}
	silent := &silentConns{conns: map[net.Conn]struct{}{}}
	hs := &http.Server{Handler: h, ConnState: silent.track}
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
	silent.closeAll()
	// The shutdown budget starts now: ctx has ended, so only its values
	// carry over, not its cancellation.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		pf(stderr, "drain incomplete: %v", err)
		code = 1
	}
	if err := closeFn(); err != nil && !errors.Is(err, net.ErrClosed) {
		pf(stderr, "close: %v", err)
		code = 1
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

// silentConns tracks the connections that have not sent a request yet.
// http.Server.Shutdown counts such a StateNew connection as busy for up
// to five seconds (net/http's closeIdleConns), so one silent client
// would outlast any shorter grace. Once the drain starts they carry no request to
// finish: closeAll closes them, and track closes any accepted later.
type silentConns struct {
	mu       sync.Mutex
	draining bool
	conns    map[net.Conn]struct{}
}

// track is the server's ConnState hook.
func (s *silentConns) track(c net.Conn, st http.ConnState) {
	s.mu.Lock()
	late := st == http.StateNew && s.draining
	if st == http.StateNew && !late {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.mu.Unlock()
	if late {
		_ = c.Close()
	}
}

// closeAll marks the drain started and closes every silent connection,
// outside the lock: a Close can block on the network.
func (s *silentConns) closeAll() {
	s.mu.Lock()
	s.draining = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}
