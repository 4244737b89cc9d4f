package stream

import (
	"encoding/json"

	"solarcore/internal/obs"
)

// Publisher adapts a Topic into an obs.Observer: On stamps the schema
// version on the event's JSONL envelope, encodes it and publishes the
// line under the event's type. The encoding is byte-identical to what
// obs.JSONLSink writes for the same event (json.Marshal and
// json.Encoder.Encode produce the same bytes, modulo the trailing
// newline the sink appends), so a live stream and a durable tail replay
// deliver identical payloads.
//
// Publish never blocks (Topic drops oldest under pressure), so a
// Publisher attached via solarcore.WithObserver costs the simulation one
// marshal per event. That marshal is most of a streamed run: on a 2-CPU
// Xeon host (go1.24) the root BenchmarkRunMPPTStreamPublisher read 4.9–6.0
// ms per day (714 KB, 4,202 allocations) against 2.1–2.4 ms for
// BenchmarkRunMPPT, about 2.6 times the bare run.
type Publisher struct {
	t *Topic
}

// NewPublisher wraps t as an event-publishing observer.
func NewPublisher(t *Topic) *Publisher { return &Publisher{t: t} }

// On implements obs.Observer.
func (p *Publisher) On(ev obs.Event) {
	ev.V = obs.SchemaVersion
	b, err := json.Marshal(ev)
	if err != nil {
		// The envelope is plain structs of numbers and strings; Marshal
		// cannot fail. Drop the line rather than poison the stream.
		return
	}
	p.t.Publish(ev.Type, b)
}
