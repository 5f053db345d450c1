package experiments

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/mr"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The protection sweep is the adversarial companion to the recovery
// sweep: while a legitimate client works through deadline-bounded verbs
// under 4% bursty loss and two crash/restart cycles on machine B, a
// rogue requester on machine A hammers B with forged memory accesses —
// bad rkeys, stale keys, out-of-bounds lengths, writes to a read-only
// region, unregistered addresses. The sweep asserts the protection
// contract from three independent angles: every forged request that
// reaches B is NAK'd (rogue.Unexpected == 0), the invariant checkers
// stay silent — in particular invariant 9, which watches the DMA engine
// itself, downstream of validation — and the legitimate client keeps
// making progress by re-fetching rkeys after each restart (B's restart
// rotates every key, so the client's cached key goes stale).

// chaosProtectPoints is the sweep's x axis: forged requests issued by
// the rogue requester.
var chaosProtectPoints = []int{0, 4, 8, 16}

const (
	protectCrashCycles = 2
	protectOpDeadline  = 1200 * sim.Microsecond
	protectCrashFirst  = 400 * sim.Microsecond
	protectCadence     = 3 * sim.Millisecond
	protectDowntime    = 1200 * sim.Microsecond
)

// protectMeasure is one protection point's outcome.
type protectMeasure struct {
	clientStats
	rogue      chaos.RogueStats
	naks       uint64 // SynNAKRemoteAccess sent by B
	valFails   uint64 // MR-table validation failures on B, all classes
	violations int
}

// runProtectPoint drives the legitimate deadline-bounded workload and
// the rogue requester side by side, with crash/restart cycles on B.
func runProtectPoint(o Options, rogueOps int) (protectMeasure, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return protectMeasure{}, err
	}
	// A read-only region on B for the rogue's permission attacks: its key
	// is perfectly valid, only the access class is wrong for a WRITE.
	roBuf, err := pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead)
	if err != nil {
		return protectMeasure{}, err
	}
	// The ambient chaos is the 4% bursty-loss regime, so protection NAKs
	// share the wire with retransmissions and duplicates.
	_, ca, cb := pair.ApplyChaos(chaosLossPlan(0.04))
	crashCyclesB(pair, protectCrashCycles, protectCrashFirst, protectCadence, protectDowntime)

	// The legitimate client exchanges real rkeys up front — no wildcard
	// key 0 anywhere on the main QP pair.
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		return protectMeasure{}, err
	}

	var m protectMeasure
	var rogue *chaos.Rogue
	if rogueOps > 0 {
		if rogue, err = pairRogue(pair, roBuf, chaos.RogueConfig{Ops: rogueOps}); err != nil {
			return protectMeasure{}, err
		}
	}
	load, err := newRWLoad(pair, 16<<10)
	if err != nil {
		return protectMeasure{}, err
	}

	var runErr error
	pair.Eng.Go("protect-client", func(p *sim.Process) {
		runErr = recoveringClient(p, load, o.Iterations, protectOpDeadline, false, true, &m.clientStats)
	})
	pair.Run()
	if runErr != nil {
		return protectMeasure{}, fmt.Errorf("protect workload: %w", runErr)
	}

	violations := append(ca.Finish(), cb.Finish()...)
	m.violations = len(violations)
	if m.violations > 0 {
		return m, fmt.Errorf("protect: %d invariant violations, first: %s", m.violations, violations[0])
	}
	if rogue != nil {
		m.rogue = rogue.Stats()
		if m.rogue.Unexpected > 0 {
			return m, fmt.Errorf("protect: %d forged requests completed successfully (protection failed): %s",
				m.rogue.Unexpected, m.rogue)
		}
	}
	m.naks = pair.B.Stack().Stats().NaksRemoteAccess
	for c := mr.Class(0); c < mr.NumClasses; c++ {
		m.valFails += pair.B.MRTable().FailCount(c)
	}
	if rogueOps > 0 && m.naks == 0 {
		return m, fmt.Errorf("protect: rogue issued %d forged requests but B sent no remote-access NAKs", m.rogue.Total())
	}
	return m, nil
}

// ChaosProtectSweep sweeps the rogue requester's forged-request budget
// under 4% bursty loss and two crash/restart cycles on the victim. The
// figure reports the legitimate client's progress beside the attack
// outcome counters; the sweep fails instead of plotting if any forged
// request completes, any invariant (including the DMA-level protection
// invariant 9) is violated, or the attack produced no NAKs at all.
func ChaosProtectSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, add := sweepFigure("Chaos: memory protection sweep (10G, GE loss 4%, 2 crash cycles, rogue requester)",
		"forged requests",
		"completion time (us)", "successful ops", "deadline errors", "qp errors", "reconnects",
		"rogue rejected", "rogue expired", "rogue unexpected", "remote-access NAKs",
		"validation failures", "invariant violations")
	for _, ops := range chaosProtectPoints {
		m, err := runProtectPoint(o, ops)
		if err != nil {
			return nil, fmt.Errorf("rogue ops %d: %w", ops, err)
		}
		add(float64(ops), fmt.Sprintf("%d", ops), m.elapsed.Microseconds(), float64(m.successes),
			float64(m.deadlineErrs), float64(m.qpErrs), float64(m.reconnects), float64(m.rogue.Rejected),
			float64(m.rogue.Expired), float64(m.rogue.Unexpected), float64(m.naks), float64(m.valFails),
			float64(m.violations))
	}
	return fig, nil
}
