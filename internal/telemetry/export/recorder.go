package export

import (
	"bufio"
	"io"
	"sort"
	"strings"

	"strom/internal/sim"
	"strom/internal/telemetry"
)

// Sink receives the encoded JSONL lines of a streaming recorder, one
// Emit per event, at the moment the event is emitted. WriterSink covers
// files and buffered writers; anything else (a socket, a ring buffer)
// plugs in by implementing Emit, and also Flush when it buffers.
type Sink interface {
	Emit(line []byte) error
}

// flusher is the optional half of a Sink: Finish flushes a sink that
// implements it after the last event.
type flusher interface {
	Flush() error
}

// WriterSink buffers lines into an io.Writer. Flush writes them out.
type WriterSink struct {
	bw *bufio.Writer
}

// NewWriterSink wraps w in a buffered JSONL sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Emit writes one line.
func (s *WriterSink) Emit(line []byte) error {
	_, err := s.bw.Write(line)
	return err
}

// Flush writes buffered lines to the underlying writer.
func (s *WriterSink) Flush() error { return s.bw.Flush() }

// source is one registered health source.
type source struct {
	host      string
	subsystem string
	object    string
	scrape    ScrapeFunc
	last      map[string]uint64 // previous scrape, for deltas
}

// regEntry is one registered registry scraped by the recorder.
type regEntry struct {
	host string
	reg  *telemetry.Registry
	last map[string]uint64 // previous counter values, for deltas
}

// Recorder is the scrape-and-alert pipeline: the registered sources and
// registries, the rule set, and the sink its stream goes to. Every
// source lives on one engine, whose probe scrapes them in registration
// order. Zero-value construction is not supported; use NewRecorder.
//
// With a sink attached (Stream), every event is encoded and handed to
// the sink the moment it is emitted; nothing is kept. Without one the
// recorder runs alerts-only: each scrape feeds the rules and the OnAlert
// observers, and no payload is built, encoded or retained.
//
// Usage: register sources (and optionally a registry) and attach the
// sink during setup, Start after the workload has been scheduled, run
// the simulation, then Finish.
type Recorder struct {
	eng       *sim.Engine // bound by the first Source or Registry call
	sources   []*source
	regs      []*regEntry // optional registry scrapes, in registration order
	alerts    *alerter
	observers []func(AlertEvent)
	sink      Sink  // nil: alerts-only
	err       error // first sink error; the stream stops there
	seq       uint64
	started   bool
	finished  bool
}

// NewRecorder returns a recorder evaluating rules (nil = no alerting).
func NewRecorder(rules []Rule) *Recorder {
	return &Recorder{alerts: newAlerter(rules)}
}

// AlertEvent is one fire/resolve transition as seen by OnAlert
// observers.
type AlertEvent struct {
	Now    sim.Time
	Type   string // "alert" or "resolve"
	Rule   string
	Object string
	Metric string
	Value  float64
}

// OnAlert registers fn to run synchronously on every alert fire and
// resolve, from the scraping engine's event context at the scrape's
// simulated time. This is the hook controllers (the KV failover
// controller) sit on. Call during setup.
func (r *Recorder) OnAlert(fn func(AlertEvent)) {
	if fn != nil {
		r.observers = append(r.observers, fn)
	}
}

// notify fans one transition out to the observers.
func (r *Recorder) notify(now sim.Time, typ string, p alertPayload) {
	if len(r.observers) == 0 {
		return
	}
	ev := AlertEvent{Now: now, Type: typ, Rule: p.Rule, Object: p.Object, Metric: p.Metric, Value: p.Value}
	for _, fn := range r.observers {
		fn(ev)
	}
}

// bind ties the recorder to eng. Every source and registry must live on
// the one engine whose probe scrapes them.
func (r *Recorder) bind(eng *sim.Engine) {
	if r.eng == nil {
		r.eng = eng
		return
	}
	if eng != r.eng {
		panic("export: recorder sources registered on two engines")
	}
}

// Source registers a health source on the engine that owns its state.
// host/subsystem/object name the source in the stream ("A"/"port"/
// "nic:A", "fabric"/"link"/"a-to-b", ...). Every source and registry of
// one recorder must share an engine; a second engine panics.
func (r *Recorder) Source(eng *sim.Engine, host, subsystem, object string, scrape ScrapeFunc) {
	r.bind(eng)
	r.sources = append(r.sources, &source{host: host, subsystem: subsystem, object: object, scrape: scrape})
}

// Registry additionally scrapes a whole metrics registry on eng every
// interval, emitting one "metrics" event per registry subsystem (keyed
// by metric-name prefix: roce_*, link_*, nic_*, pcie_*, chaos_*, mr_*,
// ...) with counters, counter deltas, gauges and histogram digests.
// Quantile rules are evaluated here, against every histogram of the
// scraped registry, with host as the alert object. May be called more
// than once — each registry is scraped in registration order, after
// the health sources.
func (r *Recorder) Registry(eng *sim.Engine, host string, reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.bind(eng)
	r.regs = append(r.regs, &regEntry{host: host, reg: reg, last: make(map[string]uint64)})
}

// Stream attaches the sink the event stream is written to. Call during
// setup, before Start: the stream begins with the first scrape.
func (r *Recorder) Stream(sink Sink) {
	if r.started {
		panic("export: Stream after Start")
	}
	r.sink = sink
}

// streaming reports whether emitted events go anywhere: a sink is
// attached and has not failed.
func (r *Recorder) streaming() bool { return r.sink != nil && r.err == nil }

// Start installs the scrape probe. The probe is a daemon event: it
// scrapes for as long as the workload runs and can never keep a finished
// simulation alive, even alongside other probes — so Start works whether
// it is called before or after the workload is scheduled.
func (r *Recorder) Start(every sim.Duration) {
	if r.eng == nil {
		return
	}
	r.started = true
	telemetry.DaemonProbe(r.eng, every, r.tick)
}

// emit encodes one event and hands it to the sink; alerts-only it does
// nothing. The first failure ends the stream: it is kept for Finish and
// no later event reaches the sink.
func (r *Recorder) emit(now sim.Time, host, subsystem, typ string, data any) {
	if !r.streaming() {
		return
	}
	line, err := Encode(Event{
		TS: int64(now), Seq: r.seq, Host: host, Subsystem: subsystem,
		Type: typ, Data: marshalData(data),
	})
	r.seq++
	if err == nil {
		err = r.sink.Emit(line)
	}
	if err != nil {
		r.err = err
	}
}

// transition reports one fire/resolve from host: into the stream, then
// to the observers.
func (r *Recorder) transition(now sim.Time, host, typ string, p alertPayload) {
	r.emit(now, host, "alert", typ, p)
	r.notify(now, typ, p)
}

// tick is one scrape point: health sources in order, then the
// registries. Once Finish has run, the stream is closed and ticks do
// nothing.
func (r *Recorder) tick(now sim.Time) {
	if r.finished {
		return
	}
	r.scrape(now)
}

// scrape scrapes every source, then every registry.
func (r *Recorder) scrape(now sim.Time) {
	for _, src := range r.sources {
		r.scrapeSource(now, src)
	}
	for _, e := range r.regs {
		r.scrapeRegistry(now, e)
	}
}

// scrapeSource scrapes one source, emits its health event when
// streaming and runs the alert rules over the fresh report.
func (r *Recorder) scrapeSource(now sim.Time, src *source) {
	counters, gauges := src.scrape()
	if r.streaming() {
		delta := make(map[string]uint64, len(counters))
		for k, v := range counters {
			if d := v - src.last[k]; d != 0 {
				delta[k] = d
			}
		}
		src.last = counters
		r.emit(now, src.host, src.subsystem, "health", healthPayload{
			Object: src.object, Counters: counters, Delta: delta, Gauges: gauges,
		})
	}
	r.alerts.eval(now, src.object, counters, gauges, func(typ string, p alertPayload) {
		r.transition(now, src.host, typ, p)
	})
}

// metricsPayload is the JSON payload of one registry-subsystem event.
type metricsPayload struct {
	Counters   map[string]uint64     `json:"counters,omitempty"`
	Delta      map[string]uint64     `json:"delta,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]histDigest `json:"histograms,omitempty"`
}

// histDigest is the per-scrape digest of one histogram.
type histDigest struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// scrapeRegistry collects one registry and emits one "metrics" event
// per subsystem, in sorted subsystem order, then runs the Quantile
// rules over its histograms. Alerts-only, it reads just the histograms
// the Quantile rules watch.
func (r *Recorder) scrapeRegistry(now sim.Time, e *regEntry) {
	quantiles := r.alerts.hasQuantile()
	if !r.streaming() {
		if quantiles {
			e.reg.EachHistogram(func(key string, h *telemetry.Histogram) {
				r.evalQuantile(now, e.host, key, h)
			})
		}
		return
	}
	e.reg.Collect()
	bySub := make(map[string]*metricsPayload)
	get := func(key string) *metricsPayload {
		sub := subsystemOf(key)
		p := bySub[sub]
		if p == nil {
			p = &metricsPayload{}
			bySub[sub] = p
		}
		return p
	}
	e.reg.EachCounter(func(key string, v uint64) {
		p := get(key)
		if p.Counters == nil {
			p.Counters = make(map[string]uint64)
		}
		p.Counters[key] = v
		if d := v - e.last[key]; d != 0 {
			if p.Delta == nil {
				p.Delta = make(map[string]uint64)
			}
			p.Delta[key] = d
		}
		e.last[key] = v
	})
	e.reg.EachGauge(func(key string, v float64) {
		p := get(key)
		if p.Gauges == nil {
			p.Gauges = make(map[string]float64)
		}
		p.Gauges[key] = v
	})
	e.reg.EachHistogram(func(key string, h *telemetry.Histogram) {
		p := get(key)
		if p.Histograms == nil {
			p.Histograms = make(map[string]histDigest)
		}
		p.Histograms[key] = histDigest{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
		if quantiles {
			r.evalQuantile(now, e.host, key, h)
		}
	})
	subs := make([]string, 0, len(bySub))
	for sub := range bySub {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	for _, sub := range subs {
		r.emit(now, e.host, sub, "metrics", bySub[sub])
	}
}

// evalQuantile runs the Quantile rules over one non-empty histogram of
// the registry scraped for host.
func (r *Recorder) evalQuantile(now sim.Time, host, key string, h *telemetry.Histogram) {
	if h.Count() == 0 {
		return
	}
	r.alerts.evalQuantile(now, host, key, h.Quantile, func(typ string, p alertPayload) {
		r.transition(now, host, typ, p)
	})
}

// subsystemOf maps a metric key to its registry subsystem by name
// prefix.
func subsystemOf(key string) string {
	prefix := key
	if i := strings.IndexAny(key, "_{"); i >= 0 {
		prefix = key[:i]
	}
	switch prefix {
	case "roce", "qp":
		return "roce"
	case "link":
		return "fabric"
	case "nic", "kernel", "op", "doorbell":
		return "core"
	case "pcie":
		return "pcie"
	case "chaos":
		return "chaos"
	case "mr":
		return "mr"
	}
	return "misc"
}

// Finish ends the run's stream: one final health scrape per source (so
// the stream always carries the run's last word, even when the probe
// interval outlived the workload), a final registry snapshot and the
// alert summaries, then a flush of the sink. It returns the stream's
// first sink error. Idempotent; after it, probe ticks do nothing.
func (r *Recorder) Finish() error {
	if r.finished || r.eng == nil {
		return r.err
	}
	r.finished = true
	now := r.eng.Now()
	r.scrape(now)
	for _, sum := range r.alerts.summaries(r.objects()) {
		r.emit(now, "testbed", "alert", "summary", sum)
	}
	if f, ok := r.sink.(flusher); ok && r.err == nil {
		r.err = f.Flush()
	}
	return r.err
}

// objects lists the alertable objects in registration order,
// deduplicated: health sources first, then registry hosts (the
// Quantile rules' alert objects).
func (r *Recorder) objects() []string {
	seen := make(map[string]bool, len(r.sources)+len(r.regs))
	out := make([]string, 0, len(r.sources)+len(r.regs))
	add := func(obj string) {
		if !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
	}
	for _, src := range r.sources {
		add(src.object)
	}
	for _, e := range r.regs {
		add(e.host)
	}
	return out
}

// Summaries finishes the recorder and returns every (rule, object)
// alert tally in (rule, object) order.
func (r *Recorder) Summaries() []AlertSummary {
	r.Finish()
	return r.alerts.summaries(r.objects())
}

// Fired reports how many times the named rule fired across all objects.
func (r *Recorder) Fired(rule string) uint64 {
	var n uint64
	for _, s := range r.Summaries() {
		if s.Rule == rule {
			n += s.Fired
		}
	}
	return n
}
