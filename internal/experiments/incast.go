package experiments

import (
	"fmt"
	"strings"

	"strom/internal/fabric"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry/export"
)

// The incast experiment stresses the switched fabric the paper's
// two-machine testbed never exercises: K senders converge on one
// receiver port while a victim flow from sender 0 to an otherwise idle
// machine shares the congested uplink. With PFC alone the switch pauses
// sender 0's entire priority (congestion spreading — the victim is
// head-of-line blocked behind the incast); with DCQCN the senders'
// rates to the hot port are cut by CNPs before the pause watermark is
// reached and the victim keeps its throughput.

// incastKs is the sweep's x axis: K senders converging on one port.
var incastKs = []int{2, 4, 8}

// incastXfer is the per-write transfer size of every incast flow.
const incastXfer = 4 << 10

// IncastSwitchConfig is the switch tuning the incast experiments and
// tests share: 10G ports, a shared pool large enough that PFC always
// engages before overflow (lossless), a pause watermark low enough that
// pause/resume cycles stay well under the 500 µs retransmission
// timeout, and an ECN threshold at half the pause watermark so DCQCN
// reacts first.
func IncastSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Link:              fabric.DirectCable10G(),
		Forwarding:        500 * sim.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	}
}

// IncastMeasure is one incast run's outcome.
type IncastMeasure struct {
	VictimElapsed sim.Duration // victim flow completion time
	VictimBytes   int          // bytes the victim flow moved
	TotalElapsed  sim.Duration // whole run (last incast flow done)
	PFCPauses     uint64       // switch-wide PFC pause frames emitted
	EcnMarked     uint64       // switch-wide CE marks
	Discards      uint64       // switch-wide discards (all causes)
	CNPsSent      uint64       // CNPs reflected by the receivers
	Violations    int          // protocol invariant violations (must be 0)
}

// VictimGbps is the victim flow's goodput.
func (m IncastMeasure) VictimGbps() float64 {
	us := m.VictimElapsed.Microseconds()
	if us <= 0 {
		return 0
	}
	return float64(m.VictimBytes) * 8 / (us * 1000)
}

// RunIncast drives one K→1 incast with the victim flow riding along,
// on the switched testbed, and returns the measured outcome. Flow sizes
// scale with o.Iterations.
func RunIncast(o Options, k int, dcqcn bool) (IncastMeasure, error) {
	o = o.normalized()
	return runIncast(o, incastSpec{k: k, incastWrites: 8 * o.Iterations, victimWrites: 4 * o.Iterations, dcqcn: dcqcn}, Exports{})
}

// incastSpec shapes one incast: K senders each posting incastWrites
// writes into the receiver, and the victim flow's victimWrites. DCQCN
// runs from the start when dcqcn is set, or is enabled on every stack
// at dcqcnAt when that is positive.
type incastSpec struct {
	k                          int
	incastWrites, victimWrites int
	dcqcn                      bool
	dcqcnAt                    sim.Duration
}

// runIncast drives one incast and writes the requested exports. The run
// fails on any verb error, stalled sender, unfinished victim flow or
// invariant violation.
func runIncast(o Options, spec incastSpec, w Exports) (IncastMeasure, error) {
	k := spec.k
	n := k + 2 // senders 0..k-1, receiver k, idle victim target k+1
	run, err := newNetRun(o, n, nil, w)
	if err != nil {
		return IncastMeasure{}, err
	}
	net := run.Net
	if spec.dcqcn {
		net.EnableDCQCN(roce.DefaultDCQCN())
	}
	var rec *export.Recorder
	if w.JSONL != nil {
		rec = export.NewRecorder(export.DefaultRules())
		run.stream(rec)
	}

	recv, idle := k, k+1
	m := IncastMeasure{VictimBytes: spec.victimWrites * incastXfer}

	// Per-machine error and progress slots, read after the run.
	errs := make([]error, n)
	left := make([]int, k)
	// Every flow posts its whole write train upfront, so each sender
	// pushes at line rate and the incast genuinely congests the
	// receiver's egress port (a chained stop-and-wait flow would be
	// latency-bound and never build a queue).
	startFlow := func(i int, qp uint32, localVA, remoteVA uint64, writes int, done func()) {
		src := net.Machines[i]
		remaining := writes
		src.Eng.Schedule(0, func() {
			for w := 0; w < writes; w++ {
				src.NIC.PostWrite(qp, localVA, remoteVA, incastXfer, func(err error) {
					if err != nil {
						if errs[i] == nil {
							errs[i] = err
						}
						return
					}
					remaining--
					left[i] = remaining
					if remaining == 0 && done != nil {
						done()
					}
				})
			}
		})
	}

	for i := 0; i < k; i++ {
		qp, _, err := net.Connect(i, recv)
		if err != nil {
			return m, err
		}
		left[i] = spec.incastWrites
		dst := uint64(net.Machines[recv].Buf.Base()) + uint64(i)*incastXfer
		startFlow(i, qp, uint64(net.Machines[i].Buf.Base()), dst, spec.incastWrites, nil)
	}
	vqp, _, err := net.Connect(0, idle)
	if err != nil {
		return m, err
	}
	victim := net.Machines[0]
	startFlow(0, vqp,
		uint64(victim.Buf.Base())+incastXfer,
		uint64(net.Machines[idle].Buf.Base()),
		spec.victimWrites,
		func() { m.VictimElapsed = victim.Eng.Now().Sub(0) })

	if spec.dcqcnAt > 0 {
		// Flip DCQCN on mid-storm. The senders' first CNPs arrive
		// moments later and the pause/resume churn dies out — visible in
		// the jsonl stream as the pfc-pause alert resolving while
		// cnps_tx climbs.
		net.SwEng.Schedule(spec.dcqcnAt, func() { net.EnableDCQCN(roce.DefaultDCQCN()) })
	}

	run.probe()
	if rec != nil {
		rec.Start(2 * sim.Microsecond)
	}
	end := net.Run()
	m.TotalElapsed = end.Sub(0)

	for i, e := range errs {
		if e != nil {
			return m, fmt.Errorf("incast k=%d machine %d: %w", k, i, e)
		}
	}
	for i, l := range left {
		if l != 0 {
			return m, fmt.Errorf("incast k=%d: sender %d stalled with %d writes left", k, i, l)
		}
	}
	if m.VictimElapsed <= 0 {
		return m, fmt.Errorf("incast k=%d: victim flow never completed", k)
	}
	vio := run.violations()
	m.Violations = len(vio)
	for i := 0; i < net.Sw.NumPorts(); i++ {
		st := net.Sw.PortStats(i)
		m.PFCPauses += st.PauseTx
		m.EcnMarked += st.EcnMarked
		m.Discards += st.Discards
	}
	for _, mm := range net.Machines {
		m.CNPsSent += mm.NIC.Stack().Stats().CnpsSent
	}
	if m.Violations > 0 {
		return m, fmt.Errorf("incast k=%d: %d invariant violations:\n%s", k, m.Violations, strings.Join(vio, "\n"))
	}
	return m, run.write(rec)
}

// ChaosIncastSweep sweeps K∈{2,4,8} senders into one port with and
// without DCQCN and reports the victim flow's completion time next to
// the switch's PFC/ECN activity. The invariant checkers on every stack
// must stay silent at every point.
func ChaosIncastSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, add := sweepFigure("Chaos: K-to-1 incast through PFC/ECN switch, victim flow", "K senders",
		"victim completion us (dcqcn off)", "victim completion us (dcqcn on)", "pfc pauses (dcqcn off)",
		"ecn marks (dcqcn on)", "cnps (dcqcn on)", "switch discards", "invariant violations")
	for _, k := range incastKs {
		moff, err := RunIncast(o, k, false)
		if err != nil {
			return nil, fmt.Errorf("incast k=%d dcqcn=off: %w", k, err)
		}
		mon, err := RunIncast(o, k, true)
		if err != nil {
			return nil, fmt.Errorf("incast k=%d dcqcn=on: %w", k, err)
		}
		add(float64(k), fmt.Sprintf("%d", k),
			moff.VictimElapsed.Microseconds(), mon.VictimElapsed.Microseconds(), float64(moff.PFCPauses),
			float64(mon.EcnMarked), float64(mon.CNPsSent), float64(moff.Discards+mon.Discards),
			float64(moff.Violations+mon.Violations))
	}
	return fig, nil
}

// exportIncast is the incast scenario: one 4→1 storm in two phases.
// DCQCN starts disabled, so PFC pause/resume cycles and ECN marks
// accumulate (the pfc-pause and ecn-marked alert rules must fire);
// halfway through the flows every stack enables DCQCN mid-run, so the
// CNP/pacing counters export real values and the pauses die out. The
// invariant checkers on every stack must stay silent.
func exportIncast(o Options, w Exports) error {
	o = o.normalized()
	writes := 24 * o.Iterations
	_, err := runIncast(o, incastSpec{
		k:            4,
		incastWrites: writes,
		victimWrites: 8 * o.Iterations,
		dcqcnAt:      sim.Duration(writes) * 8 * sim.Microsecond,
	}, w)
	return err
}
