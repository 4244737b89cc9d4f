// Package stream is the live run-streaming hub behind GET /v1/stream
// (DESIGN.md §17): a stdlib-only publish/subscribe fan-out of the
// versioned obs JSONL event stream, keyed per run by RunSpec.Hash().
//
// The design priority is the paper's own cost discipline: streaming must
// cost near-zero on the simulation hot path. A Topic therefore never
// blocks its publisher. Each topic keeps a bounded in-memory history of
// pre-encoded JSONL lines; subscribers are cursors over that history.
// A fast subscriber reads live as lines arrive; a slow one falls behind
// until the ring drops the oldest lines under it, at which point its
// next read synthesizes one explicit gap event (obs.TypeGap, carrying
// the dropped count) and resumes at the surviving edge — drop-oldest,
// loudly, never backpressure into the engine.
//
// Because history is retained from sequence 1 (until the cap evicts it),
// a watcher attaching mid-run replays the prefix and then follows live,
// and an SSE client reconnecting with Last-Event-ID resumes exactly
// after the last line it saw. Event sequence numbers are deterministic —
// the engine is — so a resume cursor is valid against any replica that
// re-derives the same run.
package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"solarcore/internal/obs"
)

// Hub metric names, kept in the obs.Registry shared with the serving
// layer (DESIGN.md §17).
const (
	// MetricTopicsOpened counts topics created over the hub's lifetime.
	MetricTopicsOpened = "stream_topics_opened_total"
	// MetricTopicsActive gauges topics currently open (not yet closed).
	MetricTopicsActive = "stream_topics_active"
	// MetricSubscribers counts subscriptions opened over the hub's lifetime.
	MetricSubscribers = "stream_subscribers_total"
	// MetricSubscribersActive gauges subscriptions currently attached.
	MetricSubscribersActive = "stream_subscribers_active"
	// MetricPublished counts events published into topics.
	MetricPublished = "stream_events_published_total"
	// MetricDropped counts events evicted from topic history by the
	// per-topic cap before every subscriber had read them.
	MetricDropped = "stream_events_dropped_total"
	// MetricGaps counts gap events synthesized for subscribers that fell
	// behind the retained history.
	MetricGaps = "stream_gaps_total"
	// MetricReplays counts topics fed from a durable event tail instead
	// of a live run.
	MetricReplays = "stream_replays_total"
)

// DefaultMaxEvents bounds a topic's in-memory history when Config leaves
// MaxEvents zero. A full day at 8-minute steps emits a few hundred
// lines, so the default retains whole runs with room to spare while
// capping a pathological subscriber's cost at a few MiB per topic.
const DefaultMaxEvents = 16384

// Config tunes a Hub. The zero value works with the documented defaults.
type Config struct {
	// MaxEvents bounds each topic's retained history (default
	// DefaultMaxEvents). When a topic exceeds it, the oldest lines are
	// dropped and lagging subscribers see an explicit gap event.
	MaxEvents int
	// Registry receives the stream_* metrics; nil builds a private one.
	Registry *obs.Registry
}

// Hub owns the per-run topics. Build one with NewHub and share it
// between the serving layer (which publishes and subscribes) and
// /metrics (through the shared registry). All methods are safe for
// concurrent use.
type Hub struct {
	cfg Config
	reg *obs.Registry

	mu     sync.Mutex
	topics map[string]*Topic

	subs atomic.Int64 // active subscribers, mirrored into the gauge
}

// NewHub builds a Hub over cfg.
func NewHub(cfg Config) *Hub {
	if cfg.MaxEvents < 1 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return &Hub{cfg: cfg, reg: cfg.Registry, topics: make(map[string]*Topic)}
}

// Ensure returns the open topic for key, creating it when absent. The
// second result reports creation: exactly one caller per topic
// generation sees true and owns feeding the topic (publishing events
// and closing it).
func (h *Hub) Ensure(key string) (*Topic, bool) {
	h.mu.Lock()
	t, ok := h.topics[key]
	if !ok {
		t = &Topic{hub: h, key: key}
		h.topics[key] = t
	}
	active := len(h.topics)
	h.mu.Unlock()
	if !ok {
		h.reg.Add(MetricTopicsOpened, 1)
		h.reg.Set(MetricTopicsActive, float64(active))
	}
	return t, !ok
}

// Lookup returns the open topic for key, if any.
func (h *Hub) Lookup(key string) (*Topic, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.topics[key]
	return t, ok
}

// Active returns how many topics are currently open.
func (h *Hub) Active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.topics)
}

// remove drops t from the map if it is still the registered generation
// for its key; called exactly once, by CloseWith.
func (h *Hub) remove(t *Topic) {
	h.mu.Lock()
	if h.topics[t.key] == t {
		delete(h.topics, t.key)
	}
	active := len(h.topics)
	h.mu.Unlock()
	h.reg.Set(MetricTopicsActive, float64(active))
}

// Replay feeds a stored JSONL event tail into t line by line and closes
// it — the durable-replay path for runs that completed before the
// watcher arrived. The tail passed the store's checksum, so no line is
// decoded: each is published as a sub-slice of tail under the type
// obs.EventType reads from its prefix. A line without that prefix closes
// the topic with an error instead of delivering a half-read stream.
func (h *Hub) Replay(t *Topic, tail []byte) {
	h.reg.Add(MetricReplays, 1)
	for n := 1; len(tail) > 0; n++ {
		var line []byte
		line, tail, _ = bytes.Cut(tail, []byte("\n"))
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		typ, ok := obs.EventType(line)
		if !ok {
			t.CloseWith(fmt.Errorf("stream: corrupt event tail: line %d is no event line", n))
			return
		}
		t.Publish(typ, line)
	}
	t.CloseWith(nil)
}

// Frame is one deliverable stream element: an event line with its
// sequence number, or a synthesized gap marker.
type Frame struct {
	// Seq is the 1-based event sequence number — the SSE event id. Zero
	// on gap frames, which carry no id so a resume cursor stays pinned
	// to the last real line delivered.
	Seq uint64
	// Type is the obs event type discriminator (obs.TypeTick, ... or
	// obs.TypeGap).
	Type string
	// Data is the JSONL line, byte-identical to the JSONLSink encoding
	// of the same event (without the trailing newline).
	Data []byte
	// Gap is the dropped-event count when Type is obs.TypeGap.
	Gap uint64
}

// Topic is one run's event channel: an append-only, bounded history of
// encoded lines plus close state. Publish and CloseWith are called by
// the single feeder (the simulation's observer or a durable replay);
// Subscribe/Next by any number of concurrent consumers.
type Topic struct {
	hub *Hub
	key string

	mu      sync.Mutex
	frames  []Frame
	base    uint64 // frames[0].Seq == base+1; advanced by drops
	dropped uint64 // total lines evicted from history
	closed  bool
	err     error
	wait    chan struct{} // non-nil only while a subscriber is parked
}

// Key returns the topic's run key (the RunSpec hash).
func (t *Topic) Key() string { return t.key }

// Publish appends one encoded event line. It never blocks: when history
// is at the cap the oldest line is dropped (lagging subscribers will see
// a gap event). Publishing to a closed topic is a no-op.
func (t *Topic) Publish(typ string, data []byte) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if drop := len(t.frames) - t.hub.cfg.MaxEvents + 1; drop > 0 {
		t.frames = t.frames[drop:]
		t.base += uint64(drop)
		t.dropped += uint64(drop)
		t.hub.reg.Add(MetricDropped, float64(drop))
	}
	seq := t.base + uint64(len(t.frames)) + 1
	t.frames = append(t.frames, Frame{Seq: seq, Type: typ, Data: data})
	if t.wait != nil {
		close(t.wait)
		t.wait = nil
	}
	t.mu.Unlock()
	t.hub.reg.Add(MetricPublished, 1)
}

// CloseWith ends the topic: nil err marks a complete stream (subscribers
// drain the remaining history, then read io.EOF), non-nil a failed one
// (they read err after draining). The topic leaves the hub's map, so a
// later watcher of the same key starts a fresh generation (durable
// replay or re-simulation). Only the first call has effect.
func (t *Topic) CloseWith(err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.err = err
	if t.wait != nil {
		close(t.wait)
		t.wait = nil
	}
	t.mu.Unlock()
	t.hub.remove(t)
}

// Closed reports whether CloseWith has been called.
func (t *Topic) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Err returns the close error (nil while open or closed clean).
func (t *Topic) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Len returns how many lines the topic has published in total.
func (t *Topic) Len() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base + uint64(len(t.frames))
}

// TailJSONL reassembles the retained history as a JSONL byte stream —
// the durable event tail persisted next to the result. When the cap
// evicted early lines, the tail opens with an explicit gap line so a
// replay is explicitly gapped, never silently shortened.
func (t *Topic) TailJSONL() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	if t.dropped > 0 {
		buf.Write(gapLine(t.dropped))
		buf.WriteByte('\n')
	}
	for _, fr := range t.frames {
		buf.Write(fr.Data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// gapLine encodes one gap event as a JSONL line (no trailing newline).
// Its one integer payload always encodes.
func gapLine(dropped uint64) []byte {
	var enc obs.EventEncoder
	line, _ := enc.Encode(obs.Event{Type: obs.TypeGap, Gap: &obs.GapEvent{Dropped: dropped}})
	return bytes.TrimSuffix(line, []byte("\n"))
}

// Subscribe attaches a cursor that delivers every line after sequence
// number `after` (zero replays from the start). A cursor ahead of the
// current history simply waits — sequence numbers are deterministic, so
// a resume cursor from a previous generation stays valid while a fresh
// feed catches up to it. Close the subscription when done.
func (t *Topic) Subscribe(after uint64) *Sub {
	t.hub.reg.Add(MetricSubscribers, 1)
	t.hub.reg.Set(MetricSubscribersActive, float64(t.hub.subs.Add(1)))
	return &Sub{t: t, next: after + 1}
}

// Sub is one subscriber's cursor over a topic. Next is not safe for
// concurrent use from multiple goroutines; everything else about the
// topic is.
type Sub struct {
	t      *Topic
	next   uint64
	closed bool
}

// Next blocks until a frame is deliverable and returns it. After the
// topic closes and the cursor has drained the history, Next returns
// io.EOF (clean stream) or the topic's close error. A canceled ctx
// returns ctx.Err().
func (s *Sub) Next(ctx context.Context) (Frame, error) {
	for {
		fr, wait, err, ok := s.step()
		if ok || err != nil {
			return fr, err
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		}
	}
}

// step advances the cursor under the topic lock: it returns a deliverable
// frame (ok), a terminal error, or the channel to park on until the
// topic's next publish or close.
func (s *Sub) step() (Frame, chan struct{}, error, bool) {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.next <= t.base {
		// The ring dropped lines this cursor had not read: deliver one
		// explicit gap event and resume at the surviving edge.
		missed := t.base + 1 - s.next
		s.next = t.base + 1
		t.hub.reg.Add(MetricGaps, 1)
		return Frame{Type: obs.TypeGap, Data: gapLine(missed), Gap: missed}, nil, nil, true
	}
	if idx := s.next - t.base - 1; idx < uint64(len(t.frames)) {
		fr := t.frames[idx]
		s.next++
		return fr, nil, nil, true
	}
	if t.closed {
		err := t.err
		if err == nil {
			err = io.EOF
		}
		return Frame{}, nil, err, false
	}
	if t.wait == nil {
		t.wait = make(chan struct{})
	}
	return Frame{}, t.wait, nil, false
}

// Close detaches the subscription (gauge bookkeeping only; the cursor
// holds no topic resources). Safe to call more than once.
func (s *Sub) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.t.hub.reg.Set(MetricSubscribersActive, float64(s.t.hub.subs.Add(-1)))
}
