package export

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"strom/internal/sim"
	"strom/internal/telemetry"
)

// heartbeatRule is shaped like the KV failure detector
// (kvserve.HeartbeatRule): a server's heartbeat counter must keep
// moving while it claims to be serving.
var heartbeatRule = Rule{Name: "kv-heartbeat", Metric: "kv_heartbeats", Kind: NoProgress, For: 400 * sim.Microsecond, While: "kv_serving"}

func kvRules() []Rule { return append(DefaultRules(), heartbeatRule) }

// alertSchedule is one 10 ms run that trips a Rate rule (a discard
// burst), both NoProgress rules (a heartbeat gap while serving, then a
// stalled op), a Threshold rule (a remote-access NAK) and the Quantile
// rule (a latency tail), with resolves in between.
type alertSchedule struct {
	out       []AlertEvent
	summaries []AlertSummary
	err       error // Finish's
}

// runAlertSchedule runs the schedule, streaming into sink when it is
// non-nil, and returns what the alerting side saw.
func runAlertSchedule(sink Sink) alertSchedule {
	eng := sim.NewEngine(5)
	var (
		discards, completed, naks, beats uint64
		outstanding                      float64
	)
	rec := NewRecorder(kvRules())
	rec.Source(eng, "A", "port", "nic:A", func() (map[string]uint64, map[string]float64) {
		return map[string]uint64{"out_discards": discards, "ops_completed": completed, "remote_access_naks": naks},
			map[string]float64{"outstanding_ops": outstanding}
	})
	rec.Source(eng, "m1", "kv", "kvsrv:0", func() (map[string]uint64, map[string]float64) {
		return map[string]uint64{"kv_heartbeats": beats}, map[string]float64{"kv_serving": 1}
	})
	reg := telemetry.NewRegistry()
	lat := reg.Histogram("kv_op_latency_ps", "ps")
	rec.Registry(eng, "testbed", reg)
	var got alertSchedule
	rec.OnAlert(func(ev AlertEvent) { got.out = append(got.out, ev) })
	if sink != nil {
		rec.Stream(sink)
	}

	at := func(t sim.Duration, fn func()) { eng.Schedule(t, fn) }
	for d := 10 * sim.Microsecond; d <= 10*sim.Millisecond; d += 10 * sim.Microsecond {
		switch {
		case d >= sim.Millisecond && d < 2*sim.Millisecond:
			at(d, func() { discards++ })
		case d >= 5*sim.Millisecond && d < 8*sim.Millisecond:
			at(d, func() { outstanding = 1 })
		default:
			at(d, func() { outstanding = 0; completed++ })
		}
		if d%(50*sim.Microsecond) == 0 && (d < 3*sim.Millisecond || d >= 4*sim.Millisecond) {
			at(d, func() { beats++ })
		}
		v := int64(sim.Microsecond)
		if d >= 6*sim.Millisecond && d < 6500*sim.Microsecond {
			v = int64(3 * sim.Millisecond)
		}
		at(d, func() { lat.ObserveInt(v) })
	}
	at(9*sim.Millisecond, func() { naks++ })
	rec.Start(20 * sim.Microsecond)
	eng.Run()
	got.err = rec.Finish()
	got.summaries = rec.Summaries()
	return got
}

// Alerting is independent of export: the same schedule under the same
// rules delivers the identical OnAlert sequence and summaries whether
// or not a stream is attached.
func TestAlertsIndependentOfStream(t *testing.T) {
	sink := &MemorySink{}
	streamed, bare := runAlertSchedule(sink), runAlertSchedule(nil)
	if streamed.err != nil || bare.err != nil {
		t.Fatalf("Finish: %v / %v", streamed.err, bare.err)
	}

	fired := map[string]bool{}
	var resolves int
	for _, ev := range streamed.out {
		fired[ev.Rule] = fired[ev.Rule] || ev.Type == "alert"
		if ev.Type == "resolve" {
			resolves++
		}
	}
	for _, rule := range []string{"kv-heartbeat", "watchdog", "out-discards", "remote-access", "op-latency-p99"} {
		if !fired[rule] {
			t.Errorf("%s never fired; the schedule must trip it", rule)
		}
	}
	if resolves == 0 {
		t.Error("no alert resolved; the schedule must clear its faults")
	}
	if !reflect.DeepEqual(streamed.out, bare.out) {
		t.Fatalf("OnAlert sequences differ:\nstreamed %+v\nbare     %+v", streamed.out, bare.out)
	}
	if !reflect.DeepEqual(streamed.summaries, bare.summaries) {
		t.Fatalf("summaries differ:\nstreamed %+v\nbare     %+v", streamed.summaries, bare.summaries)
	}

	// The stream carries the same transitions the observers saw.
	var inStream []AlertEvent
	for _, ev := range sink.Events {
		if ev.Type == "alert" || ev.Type == "resolve" {
			inStream = append(inStream, AlertEvent{Now: sim.Time(ev.TS), Type: ev.Type})
		}
	}
	if len(inStream) != len(streamed.out) {
		t.Fatalf("stream has %d transitions, observers saw %d", len(inStream), len(streamed.out))
	}
	for i, ev := range inStream {
		if ev.Now != streamed.out[i].Now || ev.Type != streamed.out[i].Type {
			t.Fatalf("transition %d: stream %+v, observer %+v", i, ev, streamed.out[i])
		}
	}
}

// failingSink accepts ok lines, then fails every Emit.
type failingSink struct {
	ok      int
	emits   int
	flushes int
}

var errSinkFull = errors.New("sink full")

func (s *failingSink) Emit([]byte) error {
	s.emits++
	if s.emits > s.ok {
		return errSinkFull
	}
	return nil
}

func (s *failingSink) Flush() error {
	s.flushes++
	return nil
}

// A sink that fails mid-run ends the stream: Finish returns the first
// error, no later Emit (or flush) is attempted, and alerting carries
// on exactly as without a stream.
func TestStreamErrorEndsStream(t *testing.T) {
	sink := &failingSink{ok: 25}
	eng := sim.NewEngine(1)
	port := &fakePort{}
	r := NewRecorder(DefaultRules())
	r.Source(eng, "A", "port", "nic:A", port.scrape)
	r.Stream(sink)
	for i := 1; i <= 100; i++ {
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() { port.frames++ })
	}
	r.Start(sim.Microsecond)
	eng.Run()
	if sink.emits != sink.ok+1 {
		t.Fatalf("sink saw %d Emits, want %d: nothing after the first failure", sink.emits, sink.ok+1)
	}
	if err := r.Finish(); !errors.Is(err, errSinkFull) {
		t.Fatalf("Finish = %v, want the sink's error", err)
	}
	if err := r.Finish(); !errors.Is(err, errSinkFull) {
		t.Fatalf("second Finish = %v, want the same error", err)
	}
	if sink.emits != sink.ok+1 || sink.flushes != 0 {
		t.Fatalf("after Finish: %d Emits, %d flushes; want %d and 0", sink.emits, sink.flushes, sink.ok+1)
	}

	// Alerting outlives the stream.
	broken, bare := runAlertSchedule(&failingSink{ok: 40}), runAlertSchedule(nil)
	if !errors.Is(broken.err, errSinkFull) {
		t.Fatalf("Finish = %v, want the sink's error", broken.err)
	}
	if !reflect.DeepEqual(broken.out, bare.out) || !reflect.DeepEqual(broken.summaries, bare.summaries) {
		t.Fatalf("alerts changed after a sink failure:\nbroken %+v\nbare   %+v", broken.out, bare.out)
	}
}

// Finish closes the stream: later probe ticks emit nothing and notify
// nobody, so a flushed sink is never written after its summaries.
func TestTickAfterFinishIsNoop(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{}
	rec := NewRecorder(DefaultRules())
	rec.Source(eng, "A", "port", "nic:A", port.scrape)
	var alerts int
	rec.OnAlert(func(AlertEvent) { alerts++ })
	sink := &MemorySink{}
	rec.Stream(sink)
	for i := 1; i <= 10; i++ {
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() { port.frames++ })
	}
	rec.Start(2 * sim.Microsecond)
	eng.Run()
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	n, fired := len(sink.Events), alerts
	if n == 0 || sink.Events[n-1].Type != "summary" {
		t.Fatalf("stream of %d events does not end in a summary", n)
	}

	// More work on the same engine, with a NAK the live recorder would
	// alert on: the daemon probe keeps ticking, the recorder stays quiet.
	for i := 1; i <= 10; i++ {
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() { port.frames++; port.naks++ })
	}
	eng.Run()
	if len(sink.Events) != n {
		t.Fatalf("%d events emitted after Finish", len(sink.Events)-n)
	}
	if alerts != fired {
		t.Fatalf("%d alerts delivered after Finish", alerts-fired)
	}
}

// Alerts-only, the recorder keeps no per-event state: ten thousand
// ticks leave no sequence, no delta baseline, and cost the same
// allocations per tick as the first few; Fired and Summaries still
// report the run.
func TestNoStreamRetainsNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(kvRules())
	// The scrape returns the same maps every time, so the allocations
	// measured are the recorder's own.
	counters := map[string]uint64{"out_discards": 0, "ops_completed": 0, "kv_heartbeats": 0, "qp1_retransmissions": 0}
	gauges := map[string]float64{"outstanding_ops": 1, "kv_serving": 1}
	rec.Source(eng, "A", "port", "nic:A", func() (map[string]uint64, map[string]float64) { return counters, gauges })
	step := func() {
		counters["out_discards"]++
		rec.tick(eng.Now())
	}
	tick := func() {
		eng.Schedule(20*sim.Microsecond, step)
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		tick()
	}
	early := testing.AllocsPerRun(100, tick)
	for i := 0; i < 10000; i++ {
		tick()
	}
	late := testing.AllocsPerRun(100, tick)
	t.Logf("allocs per alerts-only tick: %v early, %v late", early, late)
	const bound = 2
	if early > bound || late > bound {
		t.Fatalf("allocs per alerts-only tick: %v early, %v late; want <= %d", early, late, bound)
	}
	if late > early {
		t.Fatalf("allocs per tick grew with tick count: %v -> %v", early, late)
	}
	if rec.seq != 0 || rec.sources[0].last != nil {
		t.Fatalf("alerts-only recorder kept stream state: seq %d, delta baseline %v", rec.seq, rec.sources[0].last)
	}
	// Discards climb at 50/ms and heartbeats and completions never move
	// while serving/outstanding: each of the three rules fires once and
	// stays active.
	for _, rule := range []string{"out-discards", "watchdog", "kv-heartbeat"} {
		if n := rec.Fired(rule); n != 1 {
			t.Errorf("Fired(%s) = %d, want 1", rule, n)
		}
	}
	var active []string
	for _, s := range rec.Summaries() {
		if s.Active {
			active = append(active, s.Rule)
		}
	}
	if want := []string{"out-discards", "watchdog", "kv-heartbeat"}; !reflect.DeepEqual(active, want) {
		t.Fatalf("active at end: %v, want %v", active, want)
	}
}

// kvBenchSources registers the four health sources a KV cluster
// registers (three servers' heartbeats, the client's torn-read
// counters), each allocating its report the way the real ones do.
func kvBenchSources(eng *sim.Engine, rec *Recorder) (advance func()) {
	beats := make([]uint64, 3)
	for i := range beats {
		i := i
		rec.Source(eng, fmt.Sprintf("m%d", i+1), "kv", fmt.Sprintf("kvsrv:%d", i), func() (map[string]uint64, map[string]float64) {
			return map[string]uint64{"kv_heartbeats": beats[i]}, map[string]float64{"kv_serving": 1}
		})
	}
	var torn uint64
	rec.Source(eng, "m0", "kvclient", "kvcli", func() (map[string]uint64, map[string]float64) {
		return map[string]uint64{
			"kv_torn_detected":  torn,
			"kv_torn_retries":   torn,
			"kv_torn_failover":  0,
			"kv_spilled_reads":  torn * 3,
			"kv_orphans_reaped": 0,
		}, nil
	})
	return func() {
		for i := range beats {
			beats[i]++
		}
		torn++
	}
}

// BenchmarkRecorderTick measures one scrape tick of a KV cluster's
// recorder: streaming every event as JSONL into io.Discard, and
// alerts-only (the failure detector a benchmark run keeps).
func BenchmarkRecorderTick(b *testing.B) {
	for _, mode := range []string{"stream", "nostream"} {
		b.Run(mode, func(b *testing.B) {
			eng := sim.NewEngine(1)
			rec := NewRecorder(kvRules())
			advance := kvBenchSources(eng, rec)
			if mode == "stream" {
				rec.Stream(NewWriterSink(io.Discard))
			}
			b.ReportAllocs()
			var now sim.Time
			for i := 0; i < b.N; i++ {
				advance()
				now = now.Add(20 * sim.Microsecond)
				rec.tick(now)
			}
			if err := rec.Finish(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// The stream begins with the first scrape: attaching a sink once the
// probe is installed is a wiring bug and panics.
func TestStreamAfterStartPanics(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Source(sim.NewEngine(1), "A", "port", "nic:A", (&fakePort{}).scrape)
	rec.Start(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Stream after Start did not panic")
		}
	}()
	rec.Stream(&MemorySink{})
}
