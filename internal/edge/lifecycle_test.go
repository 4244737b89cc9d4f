package edge

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer the test can read while Serve writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDrainClosesSilentConnections pins that a client which connects
// and never sends a request cannot hold the drain past a grace shorter
// than http.Server's five-second allowance for new connections.
func TestDrainClosesSilentConnections(t *testing.T) {
	const grace = 500 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr lockedBuffer
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	exit := make(chan int, 1)
	go func() {
		exit <- Serve(ctx, "test", "127.0.0.1:0", "", h, grace, func() {}, &stdout, &stderr,
			func() error { return nil })
	}()

	var url string
	for deadline := time.Now().Add(5 * time.Second); url == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced:\n%s", stdout.String())
		}
		if _, rest, ok := strings.Cut(stdout.String(), "listening on "); ok {
			url, _, _ = strings.Cut(rest, "\n")
		}
		time.Sleep(5 * time.Millisecond)
	}

	silent, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The accept loop takes connections in order, so once a later
	// request is answered the silent connection is being served.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	start := time.Now()
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after %v, want 0\nstderr: %s", code, time.Since(start), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
	if !strings.Contains(stdout.String(), "drained, exiting") {
		t.Errorf("no drained line:\n%s", stdout.String())
	}
	if err := silent.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("silent connection read = %v, want io.EOF (closed by the drain)", err)
	}
}
