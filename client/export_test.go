package client

import (
	"bufio"
	"io"
)

// NewStreamReader wraps r as a Stream the way Client.Stream wraps a
// response body, so tests can feed the SSE parser raw bytes.
func NewStreamReader(r io.Reader, heartbeats bool) *Stream {
	return &Stream{body: io.NopCloser(r), br: bufio.NewReader(r), hb: heartbeats}
}
