package experiments

import (
	"errors"
	"fmt"
	"strings"

	"strom/internal/chaos"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/mr"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The chaos suite stresses the §4.3 reliability machinery — go-back-N,
// RETH-snapshot replay, the duplicate-READ cache — under adverse networks
// the paper's clean testbed never shows: bursty loss, reordering,
// duplication, link flaps and PCIe stalls. Every run attaches the
// protocol invariant checker to both stacks; a generator fails (rather
// than plotting garbage) if any transport invariant is violated.

// chaosLossPoints is the loss sweep's x axis: stationary loss rate in
// percent, up to the 4% regime the clean scenario already exercises.
var chaosLossPoints = []float64{0, 0.5, 1, 2, 4}

// chaosFlapPoints is the flap sweep's x axis: outage length in µs
// (RetransTimeout at 10 G is 500 µs, so the sweep crosses the timer).
var chaosFlapPoints = []sim.Duration{0, 100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond, 1000 * sim.Microsecond}

// Chaos lists the chaos suite generators (run by strombench -scenario
// chaos).
func Chaos() []Generator {
	return []Generator{
		{"chaos-loss", ChaosLossSweep},
		{"chaos-flap", ChaosFlapSweep},
		{"chaos-recovery", ChaosRecoverySweep},
		{"chaos-protect", ChaosProtectSweep},
		{"chaos-incast", ChaosIncastSweep},
		{"chaos-kv", ChaosKVSweep},
		{"chaos-kv-large", ChaosKVLargeSweep},
	}
}

// chaosMeasure is one chaos point's outcome.
type chaosMeasure struct {
	elapsed    sim.Duration
	retrans    uint64
	timeouts   uint64
	dupHits    uint64
	faults     uint64
	violations int
}

// rwLoad is the chaos workloads' traffic on the two-machine testbed:
// WRITEs of xfer bytes from A's buffer into the first half of B's, each
// followed by a READ of a static region in the second half.
type rwLoad struct {
	pair                  *testrig.Pair
	xfer                  int
	localA, writeB, readB uint64
}

// newRWLoad seeds the static region with random bytes from the engine
// RNG.
func newRWLoad(pair *testrig.Pair, xfer int) (rwLoad, error) {
	l := rwLoad{
		pair:   pair,
		xfer:   xfer,
		localA: uint64(pair.BufA.Base()),
		writeB: uint64(pair.BufB.Base()),
		readB:  uint64(pair.BufB.Base()) + uint64(pair.BufB.Size()/2),
	}
	static := make([]byte, xfer)
	pair.Eng.Rand().Read(static)
	return l, pair.B.Memory().WriteVirt(hostmem.Addr(l.readB), static)
}

// round runs one WRITE-then-READ round on the testbed QP, each verb
// bounded by deadline when that is positive.
func (l rwLoad) round(p *sim.Process, deadline sim.Duration) error {
	a := l.pair.A
	if deadline <= 0 {
		if err := a.WriteSync(p, testrig.QPA, l.localA, l.writeB, l.xfer); err != nil {
			return err
		}
		return a.ReadSync(p, testrig.QPA, l.readB, l.localA, l.xfer)
	}
	if err := a.WriteSyncDeadline(p, testrig.QPA, l.localA, l.writeB, l.xfer, p.Now().Add(deadline)); err != nil {
		return err
	}
	return a.ReadSyncDeadline(p, testrig.QPA, l.readB, l.localA, l.xfer, p.Now().Add(deadline))
}

// runChaosPoint drives Iterations rounds of the rwLoad under the plan,
// with invariant checkers on both stacks.
func runChaosPoint(o Options, plan chaos.Plan) (chaosMeasure, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return chaosMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(plan)
	load, err := newRWLoad(pair, 32<<10)
	if err != nil {
		return chaosMeasure{}, err
	}

	var m chaosMeasure
	var runErr error
	pair.Eng.Go("chaos-client", func(p *sim.Process) {
		for i := 0; i < o.Iterations; i++ {
			if runErr = load.round(p, 0); runErr != nil {
				return
			}
		}
		m.elapsed = pair.Eng.Now().Sub(0)
	})
	pair.Run()
	if runErr != nil {
		return chaosMeasure{}, fmt.Errorf("chaos workload: %w", runErr)
	}

	violations := append(ca.Finish(), cb.Finish()...)
	m.violations = len(violations)
	if m.violations > 0 {
		return m, fmt.Errorf("chaos: %d invariant violations, first: %s", m.violations, violations[0])
	}
	sa, sb := pair.A.Stack().Stats(), pair.B.Stack().Stats()
	m.retrans = sa.Retransmissions + sb.Retransmissions
	m.timeouts = sa.Timeouts + sb.Timeouts
	m.dupHits = sa.DupReadCacheHits + sb.DupReadCacheHits
	m.faults = inj.Stats().Total()
	return m, nil
}

// sweepFigure builds a sweep figure with one series per name; add plots
// one sweep point's values in series order.
func sweepFigure(title, xName string, names ...string) (*stats.Figure, func(x float64, label string, vals ...float64)) {
	fig := stats.NewFigure(title, xName, "see series")
	series := make([]*stats.Series, len(names))
	for i, name := range names {
		series[i] = fig.NewSeries(name)
	}
	return fig, func(x float64, label string, vals ...float64) {
		for i, v := range vals {
			series[i].Add(x, label, v)
		}
	}
}

// chaosFigure renders one loss or flap sweep: workload completion time
// plus the reliability counters and the (asserted-zero) violation
// count.
func chaosFigure(title, xName string) (*stats.Figure, func(x float64, label string, m chaosMeasure)) {
	fig, add := sweepFigure(title, xName,
		"completion time (us)", "retransmissions", "timeouts", "faults injected", "invariant violations")
	return fig, func(x float64, label string, m chaosMeasure) {
		add(x, label, m.elapsed.Microseconds(), float64(m.retrans), float64(m.timeouts),
			float64(m.faults), float64(m.violations))
	}
}

// burstyFaults is the chaos suite's per-direction fault mix at one
// stationary loss rate: Gilbert–Elliott bursty drops plus light
// duplication and reordering, so the NAK, timeout and duplicate-READ
// paths all fire.
func burstyFaults(avgLoss float64) chaos.LinkFaults {
	return chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(avgLoss),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
}

// chaosLossPlan applies burstyFaults in both directions.
func chaosLossPlan(avgLoss float64) chaos.Plan {
	faults := burstyFaults(avgLoss)
	return chaos.Plan{AtoB: faults, BtoA: faults}
}

// ChaosLossSweep sweeps Gilbert–Elliott bursty loss from 0 to 4% and
// reports completion time and reliability activity; the invariant
// checkers must stay silent at every point.
func ChaosLossSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, add := chaosFigure("Chaos: bursty loss sweep (10G, Gilbert-Elliott)", "avg loss %")
	for _, loss := range chaosLossPoints {
		m, err := runChaosPoint(o, chaosLossPlan(loss/100))
		if err != nil {
			return nil, fmt.Errorf("loss %.1f%%: %w", loss, err)
		}
		add(loss, fmt.Sprintf("%.1f%%", loss), m)
	}
	return fig, nil
}

// chaosFlapPlan schedules periodic link outages of the given length
// (every 2 ms, starting at 300 µs) plus DMA stall windows on both
// machines tied to the same cadence.
func chaosFlapPlan(outage sim.Duration) chaos.Plan {
	var p chaos.Plan
	if outage <= 0 {
		return p
	}
	const period = 2 * sim.Millisecond
	for i := 0; i < 8; i++ {
		at := sim.Time(300*sim.Microsecond + sim.Duration(i)*period)
		p.Flaps = append(p.Flaps, chaos.Window{At: at, Dur: outage})
		p.StallsA = append(p.StallsA, chaos.Window{At: at.Add(period / 2), Dur: outage / 2})
		p.StallsB = append(p.StallsB, chaos.Window{At: at.Add(3 * period / 4), Dur: outage / 2})
	}
	return p
}

// ChaosFlapSweep sweeps link-flap outage length across the
// retransmission-timer scale, with DMA stall windows riding along.
func ChaosFlapSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, add := chaosFigure("Chaos: link flap sweep (10G, outages every 2ms)", "outage us")
	for _, outage := range chaosFlapPoints {
		m, err := runChaosPoint(o, chaosFlapPlan(outage))
		if err != nil {
			return nil, fmt.Errorf("outage %v: %w", outage, err)
		}
		add(outage.Microseconds(), fmt.Sprintf("%.0fus", outage.Microseconds()), m)
	}
	return fig, nil
}

// chaosTelemetryPlan is the canonical chaos scenario's plan: every fault
// class at once — the 4% bursty-loss regime, corruption, duplication,
// reordering, two link flaps and DMA stalls on both machines.
func chaosTelemetryPlan() chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.04),
		CorruptProb: 0.005,
		DupProb:     0.02,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.02,
		ReorderMax:  5 * sim.Microsecond,
	}
	plan := chaos.Plan{
		AtoB: faults,
		BtoA: faults,
		Flaps: []chaos.Window{
			{At: sim.Time(200 * sim.Microsecond), Dur: 100 * sim.Microsecond},
			{At: sim.Time(1500 * sim.Microsecond), Dur: 50 * sim.Microsecond},
		},
	}
	for i := 0; i < 12; i++ {
		at := sim.Time(sim.Duration(i) * 500 * sim.Microsecond)
		plan.StallsA = append(plan.StallsA, chaos.Window{At: at.Add(50 * sim.Microsecond), Dur: 150 * sim.Microsecond})
		plan.StallsB = append(plan.StallsB, chaos.Window{At: at.Add(250 * sim.Microsecond), Dur: 150 * sim.Microsecond})
	}
	return plan
}

// exportChaos is the chaos scenario: the chaos plan's every fault class
// on the two-machine testbed, instrumented like the clean scenario, with
// the invariant checkers on both stacks required to stay silent.
//
// Beside the legitimate workload the scenario exercises the whole
// memory-protection surface, so every protection counter exports with a
// real value: a rogue requester forges bad accesses on a second QP pair
// (roce_nak_remote_access, mr_validation_fail), and one traversal RPC is
// sent chasing a pointer into unregistered memory so the kernel sandbox
// fires (kernel_mr_fault).
//
// On this scenario the alert engine is expected to fire: the chaos
// plan's loss bursts and flaps trip out-discards (and usually fcs-err),
// the rogue requester trips remote-access and qp-errors, and on seeds
// where loss bursts, DMA stalls and rogue reconnects line up the
// no-progress watchdog legitimately fires too (the workload can stall
// past the 2 ms hold). A monitoring consumer (make soak, stromtail)
// allowlists exactly those rules; anything else firing is a scenario
// regression.
func exportChaos(o Options, w Exports) error {
	o = o.normalized()
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return err
	}
	// Read-only region on B: the rogue's permission-attack target.
	roBuf, err := pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead)
	if err != nil {
		return err
	}
	kern := traversal.New(0)
	if err := pair.B.DeployKernel(traversalOp, kern); err != nil {
		return err
	}
	run := instrumentPair(pair, w)
	inj, ca, cb := pair.ApplyChaos(chaosTelemetryPlan())
	inj.AttachTelemetry(run.tel.Registry)
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		return err
	}
	rogue, err := pairRogue(pair, roBuf, chaos.RogueConfig{
		Ops:        6,
		OpDeadline: 500 * sim.Microsecond,
		Backoff:    20 * sim.Microsecond,
	})
	if err != nil {
		return err
	}
	load, err := newRWLoad(pair, 32<<10)
	if err != nil {
		return err
	}

	var runErr error
	pair.Eng.Go("chaos-telemetry-client", func(p *sim.Process) {
		for i := 0; i < 16; i++ {
			if runErr = load.round(p, 0); runErr != nil {
				return
			}
		}
		// Kernel-sandbox phase: chase a pointer into unregistered memory.
		// The kernel's first element fetch faults, the RPC completes with
		// StatusFault, and kernel_mr_fault exports as 1.
		params := traversal.Params{
			RemoteAddress:   1 << 40,
			ResponseAddress: uint64(pair.BufA.Base()) + 1<<20,
			ValueSize:       64,
		}
		if _, lerr := traversal.Lookup(p, pair.A, testrig.QPA, traversalOp, params); !errors.Is(lerr, traversal.ErrFault) {
			runErr = fmt.Errorf("sandboxed lookup: got %v, want %v", lerr, traversal.ErrFault)
		}
	})
	run.run()
	if runErr == nil && rogue.Stats().Unexpected > 0 {
		runErr = fmt.Errorf("rogue requester: %d forged requests completed (protection failed)", rogue.Stats().Unexpected)
	}
	if runErr != nil {
		return fmt.Errorf("chaos telemetry scenario: %w", runErr)
	}
	if v := append(ca.Finish(), cb.Finish()...); len(v) > 0 {
		return fmt.Errorf("chaos telemetry scenario: %d invariant violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	return run.write()
}

// pairRogue starts a rogue requester on A over an extra QP pair (3 on A,
// 4 on B), forging accesses into B's buffer and, for permission attacks,
// into the read-only region ro. cfg carries the attack budget and
// pacing.
func pairRogue(pair *testrig.Pair, ro *hostmem.Buffer, cfg chaos.RogueConfig) (*chaos.Rogue, error) {
	const qpa, qpb = 3, 4
	if err := pair.AddQueuePair(qpa, qpb); err != nil {
		return nil, err
	}
	cfg.QPN = qpa
	cfg.LocalVA = uint64(pair.BufA.Base()) + uint64(pair.BufA.Size()/2)
	cfg.Target = chaos.RogueTarget{
		Base:   uint64(pair.BufB.Base()),
		Size:   uint64(pair.BufB.Size()),
		Key:    func() uint32 { return pair.B.RegionFor(uint64(pair.BufB.Base())).RKey() },
		ROBase: uint64(ro.Base()),
		ROSize: uint64(ro.Size()),
		ROKey:  func() uint32 { return pair.B.RegionFor(uint64(ro.Base())).RKey() },
	}
	cfg.Reconnect = func() error { return pair.ReconnectPair(qpa, qpb) }
	rogue, err := chaos.NewRogue(pair.A, cfg, nil)
	if err != nil {
		return nil, err
	}
	rogue.Start()
	return rogue, nil
}
