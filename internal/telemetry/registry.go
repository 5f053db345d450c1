package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Counter is a monotonically increasing value. The nil Counter discards
// updates.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter (used by collect callbacks that mirror an
// existing stats struct into the registry).
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.v = v
}

// Value returns the current count (zero for the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value. The nil Gauge discards updates.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (zero for the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry is a label-keyed collection of metrics.
//
// Handle resolution (Counter/Gauge/Histogram lookups) is guarded by a
// mutex, so a registry shared by concurrently running simulations may
// resolve handles from their goroutines. The metric values themselves
// are plain fields, written from the event context of the engine that
// owns the component.
//
// The nil *Registry is valid and inert: metric constructors return nil
// handles and OnCollect/Collect do nothing.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter for name+labels, creating it on first use.
// Resolution allocates (the canonical key); hot paths must resolve once
// at attach time and hold the handle — Add on a held handle is
// allocation-free.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[k]; !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[k]; !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name+labels, creating it on first
// use. unit documents the observed quantity ("ps", "frames", ...) and is
// recorded in the export; the unit of the first registration wins.
func (r *Registry) Histogram(name, unit string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	h, ok := r.histograms[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[k]; !ok {
		h = &Histogram{unit: unit}
		r.histograms[k] = h
	}
	return h
}

// OnCollect registers fn to run before every export. Components use this
// to mirror their existing stats structs into the registry without
// touching their hot paths.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Collect runs the registered collect callbacks.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.RLock()
	collectors := r.collectors
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EachCounter calls fn for every counter in sorted key order. It does
// not run the collect callbacks; call Collect first for fresh mirrors.
// Used by the JSONL export scraper (internal/telemetry/export).
func (r *Registry) EachCounter(fn func(key string, v uint64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.counters) {
		fn(k, r.counters[k].v)
	}
}

// EachGauge calls fn for every gauge in sorted key order.
func (r *Registry) EachGauge(fn func(key string, v float64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.gauges) {
		fn(k, r.gauges[k].v)
	}
}

// EachHistogram calls fn for every histogram in sorted key order.
func (r *Registry) EachHistogram(fn func(key string, h *Histogram)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.histograms) {
		fn(k, r.histograms[k])
	}
}

// snapshot is the JSON shape of an exported registry. encoding/json
// serializes map keys in sorted order, which gives the stable iteration
// order the determinism contract requires.
type snapshot struct {
	Counters   map[string]uint64             `json:"counters"`
	Gauges     map[string]float64            `json:"gauges"`
	Histograms map[string]*histogramSnapshot `json:"histograms"`
}

// Snapshot runs the collectors and returns the registry as plain maps
// keyed by the canonical metric key.
func (r *Registry) Snapshot() (counters map[string]uint64, gauges map[string]float64) {
	if r == nil {
		return nil, nil
	}
	r.Collect()
	counters = make(map[string]uint64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.v
	}
	gauges = make(map[string]float64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.v
	}
	return counters, gauges
}

// WriteJSON collects and writes the whole registry as indented JSON with
// deterministically sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]*histogramSnapshot{},
	}
	if r != nil {
		r.Collect()
		for k, c := range r.counters {
			snap.Counters[k] = c.v
		}
		for k, g := range r.gauges {
			snap.Gauges[k] = g.v
		}
		for k, h := range r.histograms {
			snap.Histograms[k] = h.snapshot()
		}
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
