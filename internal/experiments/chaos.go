package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"strom/internal/chaos"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/mr"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// The chaos suite stresses the §4.3 reliability machinery — go-back-N,
// RETH-snapshot replay, the duplicate-READ cache — under adverse networks
// the paper's clean testbed never shows: bursty loss, reordering,
// duplication, link flaps and PCIe stalls. Every run attaches the
// protocol invariant checker to both stacks; a generator fails (rather
// than plotting garbage) if any transport invariant is violated.

// chaosLossPoints is the loss sweep's x axis: stationary loss rate in
// percent, up to the 4% regime WriteTelemetry already exercises.
var chaosLossPoints = []float64{0, 0.5, 1, 2, 4}

// chaosFlapPoints is the flap sweep's x axis: outage length in µs
// (RetransTimeout at 10 G is 500 µs, so the sweep crosses the timer).
var chaosFlapPoints = []sim.Duration{0, 100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond, 1000 * sim.Microsecond}

// Chaos lists the chaos suite generators (run by strombench -chaos).
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

// runChaosPoint drives the chaos workload — alternating WRITEs into the
// first half of B's buffer and READs of a static region in the second
// half — under the plan, with invariant checkers on both stacks.
func runChaosPoint(o Options, plan chaos.Plan) (chaosMeasure, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return chaosMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(plan)

	const xfer = 32 << 10
	localA := uint64(pair.BufA.Base())
	writeB := uint64(pair.BufB.Base())
	readB := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, xfer)
	rng := pair.Eng.Rand()
	rng.Read(static)
	if err := pair.B.Memory().WriteVirt(readB, static); err != nil {
		return chaosMeasure{}, err
	}

	var m chaosMeasure
	var runErr error
	pair.Eng.Go("chaos-client", func(p *sim.Process) {
		for i := 0; i < o.Iterations; i++ {
			if runErr = pair.A.WriteSync(p, testrig.QPA, localA, writeB, xfer); runErr != nil {
				return
			}
			if runErr = pair.A.ReadSync(p, testrig.QPA, uint64(readB), localA, xfer); runErr != nil {
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

// chaosFigure renders one sweep: workload completion time plus the
// reliability counters and the (asserted-zero) violation count.
func chaosFigure(title, xName string) (*stats.Figure, [5]*stats.Series) {
	fig := stats.NewFigure(title, xName, "see series")
	var s [5]*stats.Series
	s[0] = fig.NewSeries("completion time (us)")
	s[1] = fig.NewSeries("retransmissions")
	s[2] = fig.NewSeries("timeouts")
	s[3] = fig.NewSeries("faults injected")
	s[4] = fig.NewSeries("invariant violations")
	return fig, s
}

func addChaosPoint(s [5]*stats.Series, x float64, label string, m chaosMeasure) {
	s[0].Add(x, label, m.elapsed.Microseconds())
	s[1].Add(x, label, float64(m.retrans))
	s[2].Add(x, label, float64(m.timeouts))
	s[3].Add(x, label, float64(m.faults))
	s[4].Add(x, label, float64(m.violations))
}

// chaosLossPlan is the loss sweep's fault mix at one stationary loss
// rate: bursty drops both ways plus light duplication and reordering, so
// the NAK, timeout and duplicate-READ paths all fire.
func chaosLossPlan(avgLoss float64) chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(avgLoss),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{AtoB: faults, BtoA: faults}
}

// ChaosLossSweep sweeps Gilbert–Elliott bursty loss from 0 to 4% and
// reports completion time and reliability activity; the invariant
// checkers must stay silent at every point.
func ChaosLossSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, series := chaosFigure("Chaos: bursty loss sweep (10G, Gilbert-Elliott)", "avg loss %")
	for _, loss := range chaosLossPoints {
		m, err := runChaosPoint(o, chaosLossPlan(loss/100))
		if err != nil {
			return nil, fmt.Errorf("loss %.1f%%: %w", loss, err)
		}
		addChaosPoint(series, loss, fmt.Sprintf("%.1f%%", loss), m)
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
	fig, series := chaosFigure("Chaos: link flap sweep (10G, outages every 2ms)", "outage us")
	for _, outage := range chaosFlapPoints {
		m, err := runChaosPoint(o, chaosFlapPlan(outage))
		if err != nil {
			return nil, fmt.Errorf("outage %v: %w", outage, err)
		}
		addChaosPoint(series, outage.Microseconds(), fmt.Sprintf("%.0fus", outage.Microseconds()), m)
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

// WriteChaosTelemetry runs the canonical chaos scenario — the workload
// cmd/strombench exports when -chaos is combined with -metrics/-trace —
// and writes the metrics registry (including the chaos fault counters)
// and the Perfetto trace as JSON. Like WriteTelemetry it runs on its own
// engine seeded from o.Seed, so the output is byte-identical regardless
// of -j; the invariant checkers on both stacks must stay silent or the
// scenario fails.
//
// Beside the legitimate workload the scenario exercises the whole
// memory-protection surface, so every protection counter exports with a
// real value: a rogue requester forges bad accesses on a second QP pair
// (roce_nak_remote_access, mr_validation_fail), and one traversal RPC is
// sent chasing a pointer into unregistered memory so the kernel sandbox
// fires (kernel_mr_fault).
func WriteChaosTelemetry(o Options, metricsW, traceW io.Writer) error {
	return WriteChaosTelemetryExports(o, metricsW, traceW, nil)
}

// WriteChaosTelemetryExports is WriteChaosTelemetry plus the streaming
// JSONL export (see WriteTelemetryExports). On this scenario the alert
// engine is expected to fire: the chaos plan's loss bursts and flaps
// trip out-discards (and usually fcs-err), the rogue requester trips
// remote-access and qp-errors, and on seeds where loss bursts, DMA
// stalls and rogue reconnects line up the no-progress watchdog
// legitimately fires too (the workload can stall past the 2 ms hold).
// A monitoring consumer (make soak, stromtail) allowlists exactly
// those rules; anything else firing is a scenario regression.
func WriteChaosTelemetryExports(o Options, metricsW, traceW, jsonlW io.Writer) error {
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
	tel := pair.Instrument()
	var rec *export.Recorder
	if jsonlW != nil {
		rec = export.NewRecorder(export.DefaultRules())
		pair.RecordJSONL(rec, tel)
	}
	inj, ca, cb := pair.ApplyChaos(chaosTelemetryPlan())
	inj.AttachTelemetry(tel.Registry)
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		return err
	}
	if err := pair.AddQueuePair(3, 4); err != nil {
		return err
	}
	rogue, err := chaos.NewRogue(pair.A, chaos.RogueConfig{
		QPN:     3,
		LocalVA: uint64(pair.BufA.Base()) + uint64(pair.BufA.Size()/2),
		Target: chaos.RogueTarget{
			Base:   uint64(pair.BufB.Base()),
			Size:   uint64(pair.BufB.Size()),
			Key:    func() uint32 { return pair.B.RegionFor(uint64(pair.BufB.Base())).RKey() },
			ROBase: uint64(roBuf.Base()),
			ROSize: uint64(roBuf.Size()),
			ROKey:  func() uint32 { return pair.B.RegionFor(uint64(roBuf.Base())).RKey() },
		},
		Ops:        6,
		OpDeadline: 500 * sim.Microsecond,
		Backoff:    20 * sim.Microsecond,
		Reconnect:  func() error { return pair.ReconnectPair(3, 4) },
	}, nil)
	if err != nil {
		return err
	}
	rogue.Start()

	const xfer = 32 << 10
	localA := uint64(pair.BufA.Base())
	writeB := uint64(pair.BufB.Base())
	readB := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, xfer)
	pair.Eng.Rand().Read(static)
	if err := pair.B.Memory().WriteVirt(readB, static); err != nil {
		return err
	}

	var runErr error
	pair.Eng.Go("chaos-telemetry-client", func(p *sim.Process) {
		for i := 0; i < 16 && runErr == nil; i++ {
			if runErr = pair.A.WriteSync(p, testrig.QPA, localA, writeB, xfer); runErr != nil {
				return
			}
			if runErr = pair.A.ReadSync(p, testrig.QPA, uint64(readB), localA, xfer); runErr != nil {
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
	pair.StartProbes(tel, 2*sim.Microsecond)
	if rec != nil {
		rec.Start(2 * sim.Microsecond)
	}
	pair.Run()
	if runErr == nil && rogue.Stats().Unexpected > 0 {
		runErr = fmt.Errorf("rogue requester: %d forged requests completed (protection failed)", rogue.Stats().Unexpected)
	}
	if runErr != nil {
		return fmt.Errorf("chaos telemetry scenario: %w", runErr)
	}
	if v := append(ca.Finish(), cb.Finish()...); len(v) > 0 {
		return fmt.Errorf("chaos telemetry scenario: %d invariant violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	if metricsW != nil {
		if err := tel.Registry.WriteJSON(metricsW); err != nil {
			return err
		}
	}
	if traceW != nil {
		if err := tel.Trace.WriteJSON(traceW); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := rec.WriteJSONL(jsonlW); err != nil {
			return err
		}
	}
	return nil
}
