package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"solarcore"
	"solarcore/internal/obs"
	"solarcore/internal/stream"
)

func newHub(maxEvents int) *stream.Hub {
	return stream.NewHub(stream.Config{MaxEvents: maxEvents})
}

// line builds a valid tick event line for publishing in topic tests.
func line(i int) []byte {
	ev := obs.Event{V: obs.SchemaVersion, Type: obs.TypeTick, Tick: &obs.TickEvent{Minute: float64(i)}}
	b, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	return b
}

// drain reads frames until the subscription terminates, returning the
// frames and the terminal error.
func drain(ctx context.Context, sub *stream.Sub) ([]stream.Frame, error) {
	var frames []stream.Frame
	for {
		fr, err := sub.Next(ctx)
		if err != nil {
			return frames, err
		}
		frames = append(frames, fr)
	}
}

func TestTopicLiveOrderAndEOF(t *testing.T) {
	h := newHub(0)
	topic, created := h.Ensure("k")
	if !created {
		t.Fatal("first Ensure did not create")
	}
	if _, again := h.Ensure("k"); again {
		t.Fatal("second Ensure created a duplicate generation")
	}
	sub := topic.Subscribe(0)
	defer sub.Close()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			topic.Publish(obs.TypeTick, line(i))
		}
		topic.CloseWith(nil)
	}()
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(frames) != n {
		t.Fatalf("got %d frames, want %d", len(frames), n)
	}
	for i, fr := range frames {
		if fr.Seq != uint64(i+1) {
			t.Fatalf("frame %d: seq %d, want %d", i, fr.Seq, i+1)
		}
		if !bytes.Equal(fr.Data, line(i)) {
			t.Fatalf("frame %d: data %s, want %s", i, fr.Data, line(i))
		}
	}
}

func TestSubscribeResumesAfterCursor(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	for i := 0; i < 10; i++ {
		topic.Publish(obs.TypeTick, line(i))
	}
	topic.CloseWith(nil)
	sub := topic.Subscribe(7)
	defer sub.Close()
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(frames) != 3 || frames[0].Seq != 8 {
		t.Fatalf("resume after 7 delivered %d frames starting at %d, want 3 from 8", len(frames), frames[0].Seq)
	}
}

func TestCursorBeyondHeadWaits(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	// A resume cursor from a previous generation can be ahead of a fresh
	// feed; it must wait for the feed to catch up, not clamp backwards
	// (which would duplicate frames the client already has).
	sub := topic.Subscribe(5)
	defer sub.Close()
	go func() {
		for i := 0; i < 8; i++ {
			topic.Publish(obs.TypeTick, line(i))
		}
		topic.CloseWith(nil)
	}()
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(frames) != 3 || frames[0].Seq != 6 {
		t.Fatalf("ahead cursor delivered %d frames starting at %v, want 3 from 6", len(frames), frames)
	}
}

func TestSlowSubscriberSeesExplicitGap(t *testing.T) {
	h := newHub(4)
	topic, _ := h.Ensure("k")
	const n = 12
	for i := 0; i < n; i++ {
		topic.Publish(obs.TypeTick, line(i))
	}
	topic.CloseWith(nil)
	sub := topic.Subscribe(0)
	defer sub.Close()
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want gap + 4 retained", len(frames))
	}
	gap := frames[0]
	if gap.Type != obs.TypeGap || gap.Seq != 0 || gap.Gap != n-4 {
		t.Fatalf("first frame = %+v, want gap of %d with seq 0", gap, n-4)
	}
	var ev obs.Event
	if err := json.Unmarshal(gap.Data, &ev); err != nil {
		t.Fatalf("gap line does not parse: %v", err)
	}
	if err := ev.Validate(); err != nil {
		t.Fatalf("gap line does not validate: %v", err)
	}
	if ev.Gap.Dropped != n-4 {
		t.Fatalf("gap line dropped = %d, want %d", ev.Gap.Dropped, n-4)
	}
	// Accounting invariant: delivered + dropped covers every published
	// line, and the surviving frames are the newest, in order.
	for i, fr := range frames[1:] {
		want := uint64(n - 4 + i + 1)
		if fr.Seq != want {
			t.Fatalf("surviving frame %d: seq %d, want %d", i, fr.Seq, want)
		}
	}
}

func TestCloseWithErrorAfterDrain(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	topic.Publish(obs.TypeTick, line(0))
	boom := errors.New("boom")
	topic.CloseWith(boom)
	sub := topic.Subscribe(0)
	defer sub.Close()
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, boom) {
		t.Fatalf("terminal error = %v, want boom", err)
	}
	if len(frames) != 1 {
		t.Fatalf("history not drained before error: %d frames", len(frames))
	}
	if topic.Err() == nil || !topic.Closed() {
		t.Fatal("topic does not report its close error")
	}
}

func TestCloseRemovesTopicFromHub(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	if h.Active() != 1 {
		t.Fatalf("active = %d, want 1", h.Active())
	}
	topic.CloseWith(nil)
	if _, ok := h.Lookup("k"); ok {
		t.Fatal("closed topic still visible in hub")
	}
	if h.Active() != 0 {
		t.Fatalf("active = %d, want 0", h.Active())
	}
	if _, created := h.Ensure("k"); !created {
		t.Fatal("Ensure after close did not start a fresh generation")
	}
	// Publishing to the closed generation must be a silent no-op.
	topic.Publish(obs.TypeTick, line(0))
	if topic.Len() != 0 {
		t.Fatal("publish after close appended")
	}
}

func TestNextHonorsContext(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0)
	defer sub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestPublisherMatchesSinkBytes pins the byte-equivalence contract: the
// stream a live watcher sees is identical, line for line, to what the
// JSONL sink writes for the same run.
func TestPublisherMatchesSinkBytes(t *testing.T) {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("ML2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := solarcore.NewJSONLSink(&buf)
	h := newHub(0)
	topic, _ := h.Ensure("k")
	r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix},
		solarcore.WithObserver(sink),
		solarcore.WithObserver(stream.NewPublisher(topic)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	topic.CloseWith(nil)
	if !bytes.Equal(topic.TailJSONL(), buf.Bytes()) {
		t.Fatalf("published stream differs from sink bytes:\nstream %d bytes\nsink   %d bytes",
			len(topic.TailJSONL()), buf.Len())
	}
	if topic.Len() == 0 {
		t.Fatal("run published no events")
	}
}

// TestReplayDeliversStoredTail pins the durable-replay path: a stored
// JSONL tail replayed through the hub reaches subscribers byte-identical
// and terminates clean.
func TestReplayDeliversStoredTail(t *testing.T) {
	var tail bytes.Buffer
	sink := obs.NewJSONLSink(&tail)
	e := obs.NewEmitter(sink)
	e.RunStart(obs.RunStartEvent{Policy: "opt"})
	e.Tick(obs.TickEvent{Minute: 1})
	e.Tick(obs.TickEvent{Minute: 2})
	e.RunEnd(obs.RunEndEvent{})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	h := newHub(0)
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0)
	defer sub.Close()
	h.Replay(topic, tail.Bytes())
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	var got bytes.Buffer
	for _, fr := range frames {
		got.Write(fr.Data)
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), tail.Bytes()) {
		t.Fatalf("replayed stream differs from stored tail:\n%s\nvs\n%s", got.Bytes(), tail.Bytes())
	}
	if frames[len(frames)-1].Type != obs.TypeRunEnd {
		t.Fatal("replay did not end with run_end")
	}
}

func TestReplayCorruptTailClosesWithError(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0)
	defer sub.Close()
	h.Replay(topic, []byte("{\"v\":1,\"type\":\"tick\",\"tick\":{}}\nnot json\n"))
	frames, err := drain(context.Background(), sub)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("corrupt tail terminal error = %v, want parse failure", err)
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames before the corrupt line, want 1", len(frames))
	}
}

func TestTailJSONLGapPrefixAfterOverflow(t *testing.T) {
	h := newHub(3)
	topic, _ := h.Ensure("k")
	const n = 9
	for i := 0; i < n; i++ {
		topic.Publish(obs.TypeTick, line(i))
	}
	tail := topic.TailJSONL()
	events, err := obs.ReadEvents(bytes.NewReader(tail))
	if err != nil {
		t.Fatalf("overflowed tail does not parse: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("tail has %d events, want gap + 3 retained", len(events))
	}
	if events[0].Type != obs.TypeGap || events[0].Gap.Dropped != n-3 {
		t.Fatalf("tail prefix = %+v, want explicit gap of %d", events[0], n-3)
	}
}

// TestBlockedSubscriberNeverStallsRun is the backpressure acceptance
// test: a subscriber that attaches and then never reads must not delay
// the simulation. The run is driven with a deliberately tiny topic cap
// so the ring wraps many times while the subscriber stays parked; the
// run must complete promptly with a result byte-identical to an
// unobserved baseline.
func TestBlockedSubscriberNeverStallsRun(t *testing.T) {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("ML2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	h := newHub(8) // tiny cap: the ring wraps dozens of times per run
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0) // attached, never reads: maximally stalled
	defer sub.Close()
	r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix},
		solarcore.WithObserver(stream.NewPublisher(topic)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var got *solarcore.DayResult
	var runErr error
	go func() {
		got, runErr = r.Run()
		topic.CloseWith(nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run stalled behind a blocked subscriber")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("result under blocked subscriber differs from baseline")
	}
	// The stalled cursor now drains: an explicit gap, the retained tail,
	// and a clean EOF — loss is visible, never silent.
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if frames[0].Type != obs.TypeGap || frames[0].Gap == 0 {
		t.Fatalf("first drained frame = %+v, want a non-empty gap", frames[0])
	}
	var delivered uint64
	for _, fr := range frames {
		if fr.Seq != 0 {
			delivered++
		}
	}
	if delivered+frames[0].Gap != topic.Len() {
		t.Fatalf("delivered %d + gap %d != published %d", delivered, frames[0].Gap, topic.Len())
	}
}

// TestConcurrentFanOut hammers one topic with many subscribers at mixed
// speeds under -race: every subscriber must observe a strictly
// increasing sequence with explicit gaps covering any loss.
func TestConcurrentFanOut(t *testing.T) {
	h := newHub(32)
	topic, _ := h.Ensure("k")
	const n = 500
	const subscribers = 8
	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(lag int) {
			defer wg.Done()
			sub := topic.Subscribe(0)
			defer sub.Close()
			var last uint64
			var covered uint64
			for {
				fr, err := sub.Next(context.Background())
				if errors.Is(err, io.EOF) {
					if covered != n {
						errs <- fmt.Errorf("subscriber covered %d of %d", covered, n)
					}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if fr.Seq == 0 {
					covered += fr.Gap
					continue
				}
				if fr.Seq <= last {
					errs <- fmt.Errorf("sequence went backwards: %d after %d", fr.Seq, last)
					return
				}
				if fr.Seq != last+1 && covered+1 != fr.Seq {
					errs <- fmt.Errorf("silent hole before seq %d (covered %d)", fr.Seq, covered)
					return
				}
				last = fr.Seq
				covered++
				if lag > 0 && fr.Seq%64 == 0 {
					time.Sleep(time.Duration(lag) * time.Millisecond)
				}
			}
		}(i % 3)
	}
	for i := 0; i < n; i++ {
		topic.Publish(obs.TypeTick, line(i))
	}
	topic.CloseWith(nil)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHubMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := stream.NewHub(stream.Config{MaxEvents: 2, Registry: reg})
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0)
	for i := 0; i < 5; i++ {
		topic.Publish(obs.TypeTick, line(i))
	}
	if fr, err := sub.Next(context.Background()); err != nil || fr.Type != obs.TypeGap {
		t.Fatalf("lagged first read = %+v, %v; want gap", fr, err)
	}
	sub.Close()
	topic.CloseWith(nil)

	t2, _ := h.Ensure("k2")
	h.Replay(t2, []byte(`{"v":1,"type":"run_end","run_end":{}}`+"\n"))

	snap := reg.Snapshot()
	wantCounters := map[string]float64{
		stream.MetricTopicsOpened: 2,
		stream.MetricSubscribers:  1,
		stream.MetricPublished:    6,
		stream.MetricDropped:      3,
		stream.MetricGaps:         1,
		stream.MetricReplays:      1,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := snap.Gauges[stream.MetricTopicsActive]; got != 0 {
		t.Errorf("%s = %v, want 0", stream.MetricTopicsActive, got)
	}
	if got := snap.Gauges[stream.MetricSubscribersActive]; got != 0 {
		t.Errorf("%s = %v, want 0", stream.MetricSubscribersActive, got)
	}
}

func TestReplaySkipsBlankLinesAndMissingFinalNewline(t *testing.T) {
	h := newHub(0)
	topic, _ := h.Ensure("k")
	sub := topic.Subscribe(0)
	defer sub.Close()
	tail := "\n" + `{"v":1,"type":"tick","tick":{}}` + "\n\n" + `{"v":1,"type":"run_end","run_end":{}}`
	h.Replay(topic, []byte(tail))
	frames, err := drain(context.Background(), sub)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(frames) != 2 || frames[1].Type != obs.TypeRunEnd {
		t.Fatalf("frames = %+v, want tick + run_end", frames)
	}
	if strings.Contains(string(frames[0].Data), "\n") {
		t.Fatal("frame data carries a newline")
	}
}
