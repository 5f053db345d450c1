package experiments

import (
	"errors"
	"fmt"

	"strom/internal/chaos"
	"strom/internal/hostmem"
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
	elapsed      sim.Duration
	successes    uint64
	deadlineErrs uint64
	qpErrs       uint64
	reconnects   uint64
	faults       uint64
	violations   int
}

// recoveryPlan is the ambient network chaos the recovery story plays out
// under: the 4% bursty-loss regime with light duplication and
// reordering, plus one link flap to keep the flap path honest.
func recoveryPlan() chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.04),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{
		AtoB:  faults,
		BtoA:  faults,
		Flaps: []chaos.Window{{At: sim.Time(2500 * sim.Microsecond), Dur: 100 * sim.Microsecond}},
	}
}

// runRecoveryPoint drives the deadline-bounded workload with the given
// number of crash/restart cycles on B.
func runRecoveryPoint(o Options, cycles int) (recoveryMeasure, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return recoveryMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(recoveryPlan())

	for i := 0; i < cycles; i++ {
		at := sim.Time(recoveryCrashFirst + sim.Duration(i)*recoveryCadence)
		pair.Eng.ScheduleAt(at, func() { pair.B.Crash() })
		pair.Eng.ScheduleAt(at.Add(recoveryDowntime), func() { pair.B.Restart() })
	}

	const xfer = 16 << 10
	localA := uint64(pair.BufA.Base())
	writeB := uint64(pair.BufB.Base())
	readB := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, xfer)
	pair.Eng.Rand().Read(static)
	if err := pair.B.Memory().WriteVirt(readB, static); err != nil {
		return recoveryMeasure{}, err
	}

	var m recoveryMeasure
	var runErr error
	iters := o.Iterations * 2
	pair.Eng.Go("recovery-client", func(p *sim.Process) {
		bo := sim.Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2, Jitter: 0.5}
		for i := 0; i < iters; i++ {
			err := pair.A.WriteSyncDeadline(p, testrig.QPA, localA, writeB, xfer, p.Now().Add(recoveryOpDeadline))
			if err == nil {
				err = pair.A.ReadSyncDeadline(p, testrig.QPA, uint64(readB), localA, xfer, p.Now().Add(recoveryOpDeadline))
			}
			if err == nil {
				m.successes++
				continue
			}
			switch {
			case errors.Is(err, sim.ErrDeadlineExceeded):
				m.deadlineErrs++
			case errors.Is(err, roce.ErrQPError):
				m.qpErrs++
			default:
				runErr = fmt.Errorf("op %d: unexpected error class: %w", i, err)
				return
			}
			// Recovery loop: back off, then either conclude the failure was
			// transient (both QPs still RTS — a loss-induced deadline miss)
			// or re-establish the connection. ErrPeerCrashed while B is
			// down keeps the loop spinning until the restart.
			for attempt := 0; ; attempt++ {
				if attempt >= 64 {
					runErr = fmt.Errorf("op %d: recovery gave up after %d attempts: %w", i, attempt, err)
					return
				}
				p.Sleep(bo.Delay(attempt, p.Engine().Rand()))
				stA, serr := pair.A.Stack().QPStateOf(testrig.QPA)
				if serr != nil {
					runErr = serr
					return
				}
				if stA == roce.QPStateRTS && !pair.A.Crashed() && !pair.B.Crashed() {
					if stB, _ := pair.B.Stack().QPStateOf(testrig.QPB); stB == roce.QPStateRTS {
						break
					}
				}
				if rerr := pair.Reconnect(); rerr == nil {
					m.reconnects++
					break
				} else if !errors.Is(rerr, roce.ErrPeerCrashed) {
					runErr = fmt.Errorf("op %d: reconnect: %w", i, rerr)
					return
				}
			}
		}
		m.elapsed = pair.Eng.Now().Sub(0)
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
	fig := stats.NewFigure("Chaos: crash/restart recovery sweep (10G, GE loss 4%)", "crash cycles", "see series")
	s := []*stats.Series{
		fig.NewSeries("completion time (us)"),
		fig.NewSeries("successful ops"),
		fig.NewSeries("deadline errors"),
		fig.NewSeries("qp errors"),
		fig.NewSeries("reconnects"),
		fig.NewSeries("faults injected"),
		fig.NewSeries("invariant violations"),
	}
	for _, cycles := range chaosRecoveryPoints {
		m, err := runRecoveryPoint(o, cycles)
		if err != nil {
			return nil, fmt.Errorf("cycles %d: %w", cycles, err)
		}
		label := fmt.Sprintf("%d", cycles)
		x := float64(cycles)
		s[0].Add(x, label, m.elapsed.Microseconds())
		s[1].Add(x, label, float64(m.successes))
		s[2].Add(x, label, float64(m.deadlineErrs))
		s[3].Add(x, label, float64(m.qpErrs))
		s[4].Add(x, label, float64(m.reconnects))
		s[5].Add(x, label, float64(m.faults))
		s[6].Add(x, label, float64(m.violations))
	}
	return fig, nil
}
