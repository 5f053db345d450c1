package experiments

import (
	"fmt"
	"io"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// Exports names the writers one instrumented run exports to: the
// metrics registry as JSON, the Perfetto-compatible trace as JSON, and
// the streaming health/alert telemetry as JSON Lines. A nil writer
// skips that export. Every scenario runs on its own engine seeded from
// Options.Seed, so each export is byte-identical at every -j value.
type Exports struct {
	Metrics, Trace, JSONL io.Writer
}

// traced reports whether the run needs a registry and trace attached
// to its NICs.
func (w Exports) traced() bool { return w.Metrics != nil || w.Trace != nil }

// write emits the requested exports from the run's registry and trace
// buffer, and ends the JSONL recorder's stream (attached at setup).
func (w Exports) write(reg *telemetry.Registry, tb *telemetry.TraceBuffer, rec *export.Recorder) error {
	if w.Metrics != nil {
		if err := reg.WriteJSON(w.Metrics); err != nil {
			return err
		}
	}
	if w.Trace != nil {
		if err := tb.WriteJSON(w.Trace); err != nil {
			return err
		}
	}
	if w.JSONL != nil {
		return rec.Finish()
	}
	return nil
}

// Scenario is one instrumented run cmd/strombench can select with
// -scenario: the generators it runs when no experiment names are given,
// and the run its -metrics/-trace/-jsonl exports come from.
type Scenario struct {
	Name string
	// Suite names the generators to run when no experiment names are
	// given; nil runs the paper figures and ablations, led by the
	// static tables.
	Suite []string
	// Export runs the scenario once and writes the requested exports.
	Export func(o Options, w Exports) error
}

// Scenarios lists every instrumented scenario, the default (clean)
// first; each export function's doc describes its run.
func Scenarios() []Scenario {
	var chaosSuite []string
	for _, g := range Chaos() {
		chaosSuite = append(chaosSuite, g.Name)
	}
	return []Scenario{
		{Name: "clean", Export: exportClean},
		{Name: "chaos", Suite: chaosSuite, Export: exportChaos},
		{Name: "incast", Export: exportIncast},
		{Name: "kv", Suite: []string{"chaos-kv"}, Export: exportKV},
		{Name: "kvlarge", Suite: []string{"chaos-kv-large"}, Export: exportKVLarge},
	}
}

// pairRun is an instrumented run on the two-machine testbed: a registry
// and trace on both NICs and the link and, when JSONL is exported, a
// recorder scraping every health surface under the default alert rules.
type pairRun struct {
	*testrig.Pair
	tel *testrig.Telemetry
	rec *export.Recorder
	w   Exports
}

// instrumentPair instruments pair for w. Call after deploying kernels
// and before scheduling the workload.
func instrumentPair(pair *testrig.Pair, w Exports) *pairRun {
	r := &pairRun{Pair: pair, tel: pair.Instrument(), w: w}
	if w.JSONL != nil {
		r.rec = export.NewRecorder(export.DefaultRules())
		r.rec.Stream(export.NewWriterSink(w.JSONL))
		pair.RecordJSONL(r.rec, r.tel)
	}
	return r
}

// run starts the occupancy probes and the recorder, both every 2 µs,
// and runs the testbed to completion. Call after scheduling the
// workload.
func (r *pairRun) run() {
	r.StartProbes(r.tel, 2*sim.Microsecond)
	if r.rec != nil {
		r.rec.Start(2 * sim.Microsecond)
	}
	r.Run()
}

func (r *pairRun) write() error { return r.w.write(r.tel.Registry, r.tel.Trace, r.rec) }

// netRun is an instrumented run on the switched testbed: an invariant
// checker on every stack and, when metrics or a trace are exported, a
// registry and trace on every NIC (machine i under pid i+1, named mi).
type netRun struct {
	*testrig.Net
	checkers []*chaos.Checker
	reg      *telemetry.Registry // nil unless traced or supplied
	tb       *telemetry.TraceBuffer
	w        Exports
}

// newNetRun builds the n-machine switched testbed on the incast switch.
// reg, when non-nil, is the registry the run keeps whether or not it
// is traced (a workload that feeds alert rules from it needs one).
func newNetRun(o Options, n int, reg *telemetry.Registry, w Exports) (*netRun, error) {
	net, err := testrig.NewNet(o.Seed, n, core.Profile10G(), IncastSwitchConfig(), 1<<20)
	if err != nil {
		return nil, err
	}
	r := &netRun{Net: net, checkers: net.AttachCheckers(), reg: reg, w: w}
	if w.traced() {
		if r.reg == nil {
			r.reg = telemetry.NewRegistry()
		}
		r.tb = telemetry.NewTrace(net.SwEng)
		for i, m := range net.Machines {
			m.NIC.AttachTelemetry(r.reg, r.tb, uint32(i+1), fmt.Sprintf("m%d", i))
		}
	}
	return r, nil
}

// stream attaches the JSONL export to rec and registers every health
// surface, and the registry when the run keeps one, with it — when the
// run exports JSONL.
func (r *netRun) stream(rec *export.Recorder) {
	if r.w.JSONL == nil {
		return
	}
	rec.Stream(export.NewWriterSink(r.w.JSONL))
	r.RecordJSONL(rec)
	if r.reg != nil {
		rec.Registry(r.SwEng, "testbed", r.reg)
	}
}

// probe samples every NIC's occupancy signals every 2 µs when the run
// is traced. Install after the workload has been scheduled.
func (r *netRun) probe() {
	if r.tb == nil {
		return
	}
	telemetry.Probe(r.SwEng, 2*sim.Microsecond, func(sim.Time) {
		for _, m := range r.Machines {
			m.NIC.TelemetrySample()
		}
	})
}

// violations runs every checker's end-of-run checks and returns what
// they found.
func (r *netRun) violations() []string {
	var vio []string
	for _, ck := range r.checkers {
		vio = append(vio, ck.Finish()...)
	}
	return vio
}

func (r *netRun) write(rec *export.Recorder) error { return r.w.write(r.reg, r.tb, rec) }
