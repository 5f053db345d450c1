package experiments

import (
	"errors"
	"fmt"

	"strom/internal/chaos"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The recovery sweep exercises the end-to-end failure path: machine B
// crashes and restarts on a schedule while A keeps issuing deadline-
// bounded verbs under Gilbert–Elliott loss. A detects each death through
// verb deadlines (1.2 ms, far below the ~8.5 ms retry-exhaustion
// horizon), classifies the typed error, and re-establishes the
// connection with an exponential-backoff reconnect loop. The invariant
// checkers on both stacks assert the recovery contract throughout:
// exactly-once completion for every posted verb, no fresh PSNs out of an
// ERROR-state QP, and clean PSN restart after every reconnect.

// chaosRecoveryPoints is the sweep's x axis: crash/restart cycles
// injected on machine B.
var chaosRecoveryPoints = []int{0, 1, 2, 4}

const (
	recoveryOpDeadline = 1200 * sim.Microsecond
	recoveryCrashFirst = 200 * sim.Microsecond
	recoveryCadence    = 3 * sim.Millisecond
	recoveryDowntime   = 1200 * sim.Microsecond
)

// recoveryMeasure is one recovery point's outcome.
type recoveryMeasure struct {
	clientStats
	faults     uint64
	violations int
}

// recoveryPlan is the ambient network chaos the recovery story plays out
// under: the 4% bursty-loss regime, plus one link flap to keep the flap
// path honest.
func recoveryPlan() chaos.Plan {
	plan := chaosLossPlan(0.04)
	plan.Flaps = []chaos.Window{{At: sim.Time(2500 * sim.Microsecond), Dur: 100 * sim.Microsecond}}
	return plan
}

// crashCyclesB schedules n crash/restart cycles on machine B: the first
// crash at first, then one every cadence, each down for downtime.
func crashCyclesB(pair *testrig.Pair, n int, first, cadence, downtime sim.Duration) {
	for i := 0; i < n; i++ {
		at := sim.Time(first + sim.Duration(i)*cadence)
		pair.Eng.ScheduleAt(at, func() { pair.B.Crash() })
		pair.Eng.ScheduleAt(at.Add(downtime), func() { pair.B.Restart() })
	}
}

// clientStats counts a deadline-bounded client's outcomes.
type clientStats struct {
	elapsed      sim.Duration
	successes    uint64
	deadlineErrs uint64
	qpErrs       uint64
	reconnects   uint64
}

// recoveringClient runs iters deadline-bounded rounds of load and
// recovers from every failed round: it classifies the error, backs off,
// and re-establishes the testbed QP pair, retrying while the peer is
// down (ErrPeerCrashed). With transient set, a backoff that finds both
// machines up and both QPs still RTS concludes the failure was a
// loss-induced deadline miss and skips the reconnect; with rekey set,
// every recovery re-fetches the peer's rkeys, which a restart rotates.
func recoveringClient(p *sim.Process, load rwLoad, iters int, deadline sim.Duration, transient, rekey bool, st *clientStats) error {
	pair := load.pair
	bo := sim.Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2, Jitter: 0.5}
	for i := 0; i < iters; i++ {
		err := load.round(p, deadline)
		if err == nil {
			st.successes++
			continue
		}
		switch {
		case errors.Is(err, sim.ErrDeadlineExceeded):
			st.deadlineErrs++
		case errors.Is(err, roce.ErrQPError):
			// Includes ErrRemoteAccess when the client holds real rkeys:
			// a restart of B rotates every key, so the first verb after
			// it carries a stale one and is NAK'd.
			st.qpErrs++
		default:
			return fmt.Errorf("op %d: unexpected error class: %w", i, err)
		}
		for attempt := 0; ; attempt++ {
			if attempt >= 64 {
				return fmt.Errorf("op %d: recovery gave up after %d attempts: %w", i, attempt, err)
			}
			p.Sleep(bo.Delay(attempt, p.Engine().Rand()))
			if transient {
				stA, serr := pair.A.Stack().QPStateOf(testrig.QPA)
				if serr != nil {
					return serr
				}
				if stA == roce.QPStateRTS && !pair.A.Crashed() && !pair.B.Crashed() {
					if stB, _ := pair.B.Stack().QPStateOf(testrig.QPB); stB == roce.QPStateRTS {
						break
					}
				}
			}
			if rerr := pair.Reconnect(); rerr == nil {
				st.reconnects++
				break
			} else if !errors.Is(rerr, roce.ErrPeerCrashed) {
				return fmt.Errorf("op %d: reconnect: %w", i, rerr)
			}
		}
		if rekey {
			if kerr := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); kerr != nil {
				return fmt.Errorf("op %d: rkey exchange: %w", i, kerr)
			}
		}
	}
	st.elapsed = pair.Eng.Now().Sub(0)
	return nil
}

// runRecoveryPoint drives the deadline-bounded workload with the given
// number of crash/restart cycles on B. A failed round whose QPs are
// still up is a loss-induced deadline miss and needs no reconnect.
func runRecoveryPoint(o Options, cycles int) (recoveryMeasure, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return recoveryMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(recoveryPlan())
	crashCyclesB(pair, cycles, recoveryCrashFirst, recoveryCadence, recoveryDowntime)
	load, err := newRWLoad(pair, 16<<10)
	if err != nil {
		return recoveryMeasure{}, err
	}

	var m recoveryMeasure
	var runErr error
	pair.Eng.Go("recovery-client", func(p *sim.Process) {
		runErr = recoveringClient(p, load, 2*o.Iterations, recoveryOpDeadline, true, false, &m.clientStats)
	})
	pair.Run()
	if runErr != nil {
		return recoveryMeasure{}, fmt.Errorf("recovery workload: %w", runErr)
	}

	violations := append(ca.Finish(), cb.Finish()...)
	m.violations = len(violations)
	if m.violations > 0 {
		return m, fmt.Errorf("recovery: %d invariant violations, first: %s", m.violations, violations[0])
	}
	m.faults = inj.Stats().Total()
	return m, nil
}

// ChaosRecoverySweep sweeps crash/restart cycles on machine B under 4%
// bursty loss and reports the client's recovery behaviour: successes,
// error classes, reconnects. Every posted verb must complete exactly
// once and the checkers must stay silent at every point, or the sweep
// fails instead of plotting.
func ChaosRecoverySweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, add := sweepFigure("Chaos: crash/restart recovery sweep (10G, GE loss 4%)", "crash cycles",
		"completion time (us)", "successful ops", "deadline errors", "qp errors", "reconnects",
		"faults injected", "invariant violations")
	for _, cycles := range chaosRecoveryPoints {
		m, err := runRecoveryPoint(o, cycles)
		if err != nil {
			return nil, fmt.Errorf("cycles %d: %w", cycles, err)
		}
		add(float64(cycles), fmt.Sprintf("%d", cycles), m.elapsed.Microseconds(), float64(m.successes),
			float64(m.deadlineErrs), float64(m.qpErrs), float64(m.reconnects), float64(m.faults), float64(m.violations))
	}
	return fig, nil
}
