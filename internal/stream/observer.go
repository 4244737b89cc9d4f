package stream

import (
	"bytes"

	"solarcore/internal/obs"
)

// Publisher adapts a Topic into an obs.Observer: On encodes the event
// with an obs.EventEncoder and publishes the line, without its newline,
// under the event's type. obs.JSONLSink writes the same line, so a live
// stream and a durable tail replay deliver identical payloads. Like any
// Observer, a Publisher takes one run's events in sequence.
//
// Publish never blocks (Topic drops oldest under pressure), so a
// Publisher attached via solarcore.WithObserver costs the simulation one
// encode per event. That encode is most of a streamed run: on a 2-CPU
// Xeon host (go1.24), in three interleaved runs, the root
// BenchmarkRunMPPTStreamPublisher read 1.8–2.0 ms per day (645 KB, 2,598
// allocations) against 0.37–0.39 ms for BenchmarkRunMPPT, about five
// times the bare run.
type Publisher struct {
	t   *Topic
	enc obs.EventEncoder
}

// NewPublisher wraps t as an event-publishing observer.
func NewPublisher(t *Topic) *Publisher { return &Publisher{t: t} }

// On implements obs.Observer.
func (p *Publisher) On(ev obs.Event) {
	line, err := p.enc.Encode(ev)
	if err != nil {
		// A NaN or infinite float has no JSON form. Drop the line rather
		// than poison the stream, as JSONLSink stops on it.
		return
	}
	p.t.Publish(ev.Type, bytes.Clone(bytes.TrimSuffix(line, []byte("\n"))))
}
