package chaos

import (
	"fmt"

	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
)

// 24-bit PSN arithmetic (mirrors the State Table's modular regions).
const psnMask = 0xFFFFFF

func psnAdd(a, n uint32) uint32 { return (a + n) & psnMask }

func psnDiff(a, b uint32) int32 {
	d := (a - b) & psnMask
	if d >= 1<<23 {
		return int32(d) - 1<<24
	}
	return int32(d)
}

// qpCheck is the per-QP checker state. Requester-side fields (next*) and
// responder-side fields (epsn*) are independent: a stack is requester on
// the verbs it posts and responder on its peer's.
type qpCheck struct {
	// Requester: the next fresh PSN the stack may announce.
	next     uint32
	nextSeen bool
	// Responder: the next PSN a fresh execution must carry.
	epsn     uint32
	epsnSeen bool
	// Retransmission-timer discipline.
	lastTimeout sim.Time
	timeoutSeen bool
	awaitResend bool
	resendSince sim.Time
	// Lifecycle state as last announced via QPStateChange.
	state roce.QPState
	// Responder: fresh non-READ requests executed so far. Each one may
	// change the memory a later duplicate READ replays from.
	writes uint32
}

// readKey identifies one READ serving site: (QP, first response PSN).
type readKey struct {
	qpn uint32
	psn uint32
}

// readServing pins the payload a READ was first served with, and the
// QP's responder write count when the READ executed: once that count
// moves, the pin is retired. n is -1 until the first serving. One is
// kept per READ for the run, so the entry stays 16 bytes.
type readServing struct {
	sum    uint64
	n      int32
	writes uint32
}

// Checker is a roce.Observer asserting the transport invariants of §4.1
// online, while chaos faults exercise the reliability machinery:
//
//  1. Fresh requester packets carry contiguous PSNs (no gaps, no reuse).
//  2. Retransmissions only replay already-announced PSNs.
//  3. The responder executes fresh requests exactly in PSN order —
//     go-back-N never re-delivers a completed WQE as new.
//  4. Duplicate-region re-execution happens only for READs (idempotent).
//  5. Duplicate READs are served bit-identical payloads (the §4.1
//     cache) unless the responder executed a WRITE (or any other
//     non-READ request) on the same QP since the READ: the responder
//     re-executes duplicate READs from live memory, so a client that
//     writes what it earlier read legitimately sees the replay serve the
//     new bytes. The length, fixed by the request, must always match.
//     Workloads whose writes race reads on other QPs relax the payload
//     check to length-only via SetVolatileReads.
//  6. Retry counts respect the RetransTimeout pacing and MaxRetries cap,
//     and a timeout with outstanding work is followed by an actual
//     retransmission.
//  7. Every posted verb completes exactly once (checked at Finish).
//  8. A QP in ERROR never transmits fresh PSNs: after the flush, only a
//     reset/reconnect may put new work on the wire, and the reconnect
//     restarts the PSN space from zero (recovery invariant).
//  9. No DMA ever touches bytes outside a registered memory region with
//     the right permission (protection invariant; see DMAGuard). This is
//     asserted at DMA issue, downstream of validation, so a validation
//     bug — not just a hostile requester — trips it.
//
// A violation is recorded, not panicked, so a full chaos sweep reports
// every broken invariant at once. The checker is not an impairment: it
// never touches the stack, only observes.
type Checker struct {
	name string
	eng  *sim.Engine
	cfg  roce.Config

	qps    map[uint32]*qpCheck
	reads  map[readKey]readServing
	ops    map[uint64]string // outstanding opID -> kind
	posted uint64
	done   uint64

	volatileReads bool

	violations []string
	limit      int
	truncated  bool
}

// MaxViolations bounds the retained violation list; further violations
// are counted but not stored.
const MaxViolations = 64

// NewChecker builds a checker for one stack. name labels violations
// ("A", "B"); cfg supplies the retry budget being asserted.
func NewChecker(name string, eng *sim.Engine, cfg roce.Config) *Checker {
	return &Checker{
		name:  name,
		eng:   eng,
		cfg:   cfg,
		qps:   make(map[uint32]*qpCheck),
		reads: make(map[readKey]readServing),
		ops:   make(map[uint64]string),
		limit: MaxViolations,
	}
}

// AttachChecker builds a checker from the stack's own config and installs
// it as the stack's observer.
func AttachChecker(s *roce.Stack, name string, eng *sim.Engine) *Checker {
	c := NewChecker(name, eng, s.Config())
	s.SetObserver(c)
	return c
}

func (c *Checker) qp(qpn uint32) *qpCheck {
	q := c.qps[qpn]
	if q == nil {
		q = &qpCheck{}
		c.qps[qpn] = q
	}
	return q
}

func (c *Checker) violate(format string, args ...any) {
	if len(c.violations) >= c.limit {
		c.truncated = true
		return
	}
	msg := fmt.Sprintf("[%s @%v] ", c.name, c.eng.Now()) + fmt.Sprintf(format, args...)
	c.violations = append(c.violations, msg)
}

// PostedOp implements roce.Observer.
func (c *Checker) PostedOp(qpn uint32, opID uint64, kind string) {
	if _, dup := c.ops[opID]; dup {
		c.violate("qp %d: op %d (%s) posted twice", qpn, opID, kind)
		return
	}
	c.ops[opID] = kind
	c.posted++
}

// CompletedOp implements roce.Observer.
func (c *Checker) CompletedOp(qpn uint32, opID uint64, err error) {
	if _, ok := c.ops[opID]; !ok {
		c.violate("qp %d: completion for unknown or already-completed op %d (err=%v)", qpn, opID, err)
		return
	}
	delete(c.ops, opID)
	c.done++
}

// TxRequest implements roce.Observer.
func (c *Checker) TxRequest(qpn uint32, psn, npsn uint32, op packet.Opcode, retransmit bool) {
	q := c.qp(qpn)
	if q.state == roce.QPStateError && !retransmit {
		c.violate("qp %d: ERROR-state QP sent fresh PSN %d (%v)", qpn, psn, op)
	}
	if retransmit {
		q.awaitResend = false
		if q.nextSeen && psnDiff(psn, q.next) >= 0 {
			c.violate("qp %d: retransmitted PSN %d was never announced (next fresh is %d)", qpn, psn, q.next)
		}
		return
	}
	if q.nextSeen && psn != q.next {
		c.violate("qp %d: PSN gap on fresh %v: expected %d, sent %d", qpn, op, q.next, psn)
	}
	q.next = psnAdd(psn, npsn)
	q.nextSeen = true
}

// RespExec implements roce.Observer.
func (c *Checker) RespExec(qpn uint32, psn, npsn uint32, op packet.Opcode, dup bool) {
	q := c.qp(qpn)
	if dup {
		if op != packet.OpReadRequest {
			c.violate("qp %d: duplicate-region re-execution of non-idempotent %v at PSN %d", qpn, op, psn)
		}
		return
	}
	if q.epsnSeen && psn != q.epsn {
		c.violate("qp %d: responder executed %v at PSN %d, expected %d (go-back-N re-delivery?)", qpn, op, psn, q.epsn)
	}
	q.epsn = psnAdd(psn, npsn)
	q.epsnSeen = true
	if op == packet.OpReadRequest {
		c.reads[readKey{qpn: qpn, psn: psn}] = readServing{n: -1, writes: q.writes}
	} else {
		q.writes++
	}
}

// SetVolatileReads relaxes invariant 5 to length-only: the responder
// re-executes duplicate READs against live memory, so a workload whose
// writes on one QP race reads served on another can legitimately see a
// replayed READ serve different bytes — the length, fixed by the
// request's DMA span, must still match. Without it, only a write on the
// READ's own QP retires its pin.
func (c *Checker) SetVolatileReads(v bool) { c.volatileReads = v }

// RespReadData implements roce.Observer.
func (c *Checker) RespReadData(qpn uint32, psn uint32, sum uint64, n int) {
	k := readKey{qpn: qpn, psn: psn}
	writes := c.qp(qpn).writes
	prev, ok := c.reads[k]
	if ok && prev.n >= 0 {
		if int(prev.n) != n {
			c.violate("qp %d: duplicate READ at PSN %d served a different length (%dB, was %dB)",
				qpn, psn, n, prev.n)
			return
		}
		if prev.writes == writes {
			if prev.sum != sum && !c.volatileReads {
				c.violate("qp %d: duplicate READ at PSN %d served a different payload (crc %#x/%dB, was %#x/%dB)",
					qpn, psn, sum, n, prev.sum, prev.n)
			}
			return
		}
		// A write since the pinned serving retired it: pin this one.
	} else if ok {
		// The first serving keeps the write count of its execution, so
		// a write executed while its DMA read was in flight retires it.
		writes = prev.writes
	}
	c.reads[k] = readServing{sum: sum, n: int32(n), writes: writes}
}

// Timeout implements roce.Observer.
func (c *Checker) Timeout(qpn uint32, retries, outstanding int) {
	q := c.qp(qpn)
	now := c.eng.Now()
	if retries > c.cfg.MaxRetries+1 {
		c.violate("qp %d: retry count %d exceeds MaxRetries %d", qpn, retries, c.cfg.MaxRetries)
	}
	if q.timeoutSeen && now.Sub(q.lastTimeout) < c.cfg.RetransTimeout {
		c.violate("qp %d: retransmission timer fired after %v, below RetransTimeout %v",
			qpn, now.Sub(q.lastTimeout), c.cfg.RetransTimeout)
	}
	q.lastTimeout = now
	q.timeoutSeen = true
	if q.awaitResend {
		c.violate("qp %d: timeout at %v produced no retransmission before the next expiry", qpn, q.resendSince)
	}
	if outstanding > 0 && retries <= c.cfg.MaxRetries {
		q.awaitResend = true
		q.resendSince = now
	} else {
		q.awaitResend = false
	}
}

// QPStateChange implements roce.Observer. A transition to RESET clears
// every expectation the checker holds for the QP — PSN continuity on both
// sides, timer discipline, and the duplicate-READ payload pins — because
// a reconnected QP legitimately restarts from PSN zero. Transitions to
// ERROR drop the pending-retransmission expectation (the flush cancels
// the timer, so the resend will never come) and arm invariant 8.
func (c *Checker) QPStateChange(qpn uint32, state roce.QPState, cause error) {
	q := c.qp(qpn)
	q.state = state
	switch state {
	case roce.QPStateError:
		q.awaitResend = false
	case roce.QPStateReset:
		q.nextSeen = false
		q.epsnSeen = false
		q.timeoutSeen = false
		q.awaitResend = false
		for k := range c.reads {
			if k.qpn == qpn {
				delete(c.reads, k)
			}
		}
	}
}

// DMAGuard returns a DMA-issue observer (core.NIC.SetDMAObserver)
// asserting invariant 9 against tbl: every DMA command the NIC issues
// must land inside a registered region granting the access class the
// command was issued for. The guard uses the table's non-counting Probe
// so attaching it never perturbs the mr_validation_fail telemetry, and it
// keeps firing when the SkipMRValidation debug fault is armed — that is
// how a deliberately broken validator is caught.
func (c *Checker) DMAGuard(tbl *mr.Table) func(need mr.Access, va uint64, nbytes int) {
	return func(need mr.Access, va uint64, nbytes int) {
		if f := tbl.Probe(va, uint64(nbytes), need); f != nil {
			c.violate("DMA outside protection domain: %v", f)
		}
	}
}

// Finish runs the end-of-run liveness checks and returns every recorded
// violation. Call after the engine has drained.
func (c *Checker) Finish() []string {
	for qpn, q := range c.qps {
		if q.awaitResend {
			c.violate("qp %d: timeout at %v was never followed by a retransmission", qpn, q.resendSince)
		}
	}
	if len(c.ops) > 0 {
		sample := uint64(0)
		kind := ""
		for id, k := range c.ops {
			if sample == 0 || id < sample {
				sample = id
				kind = k
			}
		}
		c.violate("%d of %d posted verbs never completed (earliest: op %d, %s)",
			len(c.ops), c.posted, sample, kind)
	}
	return c.Violations()
}

// Violations returns the recorded violations so far (without the
// end-of-run checks; see Finish).
func (c *Checker) Violations() []string {
	out := append([]string(nil), c.violations...)
	if c.truncated {
		out = append(out, fmt.Sprintf("[%s] ... further violations suppressed after %d", c.name, c.limit))
	}
	return out
}

// Ok reports whether no invariant has been violated so far.
func (c *Checker) Ok() bool { return len(c.violations) == 0 && !c.truncated }

// Posted and Completed report the verb lifecycle counts the checker saw.
func (c *Checker) Posted() uint64    { return c.posted }
func (c *Checker) Completed() uint64 { return c.done }
