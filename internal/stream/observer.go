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
// Publisher attached via solarcore.WithObserver keeps the simulation
// hot-path cost at one marshal per event — and the benchmark pair in
// bench_test.go holds that to <1% of the run.
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
