// Package testrig assembles the two-machine testbed of §6.1 — two StRoM
// NICs connected by a direct cable — for use by kernel tests, the
// experiment harness and the examples.
package testrig

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
)

// Pair is the two-machine testbed. QP 1 on A is connected to QP 2 on B,
// and each machine has one registered buffer. Both machines, the cable
// and every process driving them share one engine.
type Pair struct {
	Eng  *sim.Engine
	A, B *core.NIC
	Link *fabric.Link
	BufA *hostmem.Buffer
	BufB *hostmem.Buffer
}

// QPA and QPB are the pre-created queue pair numbers on A and B.
const (
	QPA uint32 = 1
	QPB uint32 = 2
)

// New builds the testbed: cfg selects the machine profile (10 G or
// 100 G), linkCfg the cable, bufSize the per-machine registered buffer.
func New(seed int64, cfg core.Config, linkCfg fabric.LinkConfig, bufSize int) (*Pair, error) {
	eng := sim.NewEngine(seed)
	idA := roce.Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := roce.Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	a := core.NewNIC(eng, cfg, idA)
	b := core.NewNIC(eng, cfg, idB)
	link := fabric.NewLink(eng, linkCfg, a, b)
	a.SetTransmit(link.SendFromA)
	b.SetTransmit(link.SendFromB)
	if err := a.CreateQP(QPA, idB, QPB); err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	if err := b.CreateQP(QPB, idA, QPA); err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	bufA, err := a.AllocBuffer(bufSize)
	if err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	bufB, err := b.AllocBuffer(bufSize)
	if err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	return &Pair{Eng: eng, A: a, B: b, Link: link, BufA: bufA, BufB: bufB}, nil
}

// Run executes the testbed to completion and returns the final simulated
// time.
func (p *Pair) Run() sim.Time { return p.Eng.Run() }

// Trace process (pid) layout of the instrumented testbed.
const (
	PidA    uint32 = 1
	PidB    uint32 = 2
	PidLink uint32 = 3
)

// Telemetry bundles the observability layer of an instrumented testbed.
type Telemetry struct {
	Registry *telemetry.Registry
	Trace    *telemetry.TraceBuffer
}

// Instrument attaches a fresh metrics registry and trace buffer to both
// NICs and the link: NIC A under pid 1, NIC B under pid 2, the cable
// under pid 3. Call after deploying kernels (each deployment gets a
// trace lane) and before running the workload.
func (p *Pair) Instrument() *Telemetry {
	reg := telemetry.NewRegistry()
	tb := telemetry.NewTrace(p.Eng)
	p.A.AttachTelemetry(reg, tb, PidA, "A")
	p.B.AttachTelemetry(reg, tb, PidB, "B")
	p.Link.AttachTelemetry(reg, tb, PidLink)
	return &Telemetry{Registry: reg, Trace: tb}
}

// StartProbes installs a periodic sampling probe that records both NICs'
// occupancy signals (kernel in-flight DMA, per-QP outstanding work,
// doorbell backlog) and the link utilisation every interval of simulated
// time. Install after the workload has been scheduled: the probe stops
// with the simulation (see telemetry.Probe).
func (p *Pair) StartProbes(tel *Telemetry, every sim.Duration) {
	if tel == nil {
		return
	}
	telemetry.Probe(p.Eng, every, func(sim.Time) {
		p.A.TelemetrySample()
		p.B.TelemetrySample()
		aToB, bToA := p.Link.Utilisations()
		tel.Registry.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "a-to-b")).ObserveInt(int64(aToB * 100))
		tel.Registry.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "b-to-a")).ObserveInt(int64(bToA * 100))
	})
}

// RecordJSONL registers the testbed's health surfaces with a JSONL
// recorder — NIC A, the a→b link direction, NIC B and the b→a direction,
// in that order — and, when tel is non-nil, tel's registry too (one
// "metrics" event per subsystem per interval). Call before the workload
// is scheduled, then rec.Start after, mirroring StartProbes.
func (p *Pair) RecordJSONL(rec *export.Recorder, tel *Telemetry) {
	rec.Source(p.Eng, "A", "port", "nic:A", p.A.Health)
	rec.Source(p.Eng, "fabric", "link", "a-to-b", p.Link.HealthAtoB)
	rec.Source(p.Eng, "B", "port", "nic:B", p.B.Health)
	rec.Source(p.Eng, "fabric", "link", "b-to-a", p.Link.HealthBtoA)
	if tel != nil {
		rec.Registry(p.Eng, "testbed", tel.Registry)
	}
}

// ApplyChaos wires a chaos plan into the testbed — frame faults on the
// link, DMA stall windows on both machines — and attaches a protocol
// invariant checker to each stack. Each NIC's DMA-issue observer is
// pointed at the peer checker's DMAGuard, so invariant 9 (no DMA outside
// a registered region with the right permission) is asserted on every
// command either NIC issues. Call the checkers' Finish after the run to
// collect violations.
func (p *Pair) ApplyChaos(plan chaos.Plan) (*chaos.Injector, *chaos.Checker, *chaos.Checker) {
	inj := chaos.New(p.Eng, plan)
	inj.Apply(p.Link, p.A.DMA(), p.B.DMA())
	ca := chaos.AttachChecker(p.A.Stack(), "A", p.Eng)
	cb := chaos.AttachChecker(p.B.Stack(), "B", p.Eng)
	p.A.SetDMAObserver(ca.DMAGuard(p.A.MRTable()))
	p.B.SetDMAObserver(cb.DMAGuard(p.B.MRTable()))
	return inj, ca, cb
}

// ExchangeRKeys performs the application-level rkey exchange: each side
// learns the current rkey of the peer's registered buffer, so subsequent
// posts carry real keys instead of the wildcard key 0. Call again after
// any Restart (the restarted NIC rotates its keys) and pass the QPs the
// keys should be installed on (defaulting both is Reconnect's QPA/QPB).
func (p *Pair) ExchangeRKeys(qpa, qpb uint32) error {
	rb := p.B.RegionFor(uint64(p.BufB.Base()))
	ra := p.A.RegionFor(uint64(p.BufA.Base()))
	if ra == nil || rb == nil {
		return fmt.Errorf("testrig: buffers not registered")
	}
	if err := p.A.SetRemoteRKey(qpa, rb.RKey()); err != nil {
		return err
	}
	return p.B.SetRemoteRKey(qpb, ra.RKey())
}

// AddQueuePair connects an extra QP pair (qpa on A ↔ qpb on B) beside the
// default QPA/QPB — e.g. a rogue requester's channel.
func (p *Pair) AddQueuePair(qpa, qpb uint32) error {
	if err := p.A.CreateQP(qpa, p.B.Identity(), qpb); err != nil {
		return err
	}
	return p.B.CreateQP(qpb, p.A.Identity(), qpa)
}

// Reconnect re-establishes the testbed queue pair after a failure: both
// ends are reset (flushing anything still outstanding) and reconnected
// with fresh PSNs. It fails with roce.ErrPeerCrashed while either machine
// is down — callers retry under backoff until the peer restarts.
func (p *Pair) Reconnect() error { return p.ReconnectPair(QPA, QPB) }

// ReconnectPair is Reconnect for an arbitrary QP pair created with
// AddQueuePair.
func (p *Pair) ReconnectPair(qpa, qpb uint32) error {
	if p.A.Crashed() {
		return fmt.Errorf("%w: A is down", roce.ErrPeerCrashed)
	}
	if p.B.Crashed() {
		return fmt.Errorf("%w: B is down", roce.ErrPeerCrashed)
	}
	if err := p.B.Stack().ResetQP(qpb); err != nil {
		return err
	}
	if err := p.A.Stack().ResetQP(qpa); err != nil {
		return err
	}
	if err := p.B.Stack().ReconnectQP(qpb); err != nil {
		return err
	}
	return p.A.Stack().ReconnectQP(qpa)
}

// New10G is the common case: the 10 G testbed with 32 MB buffers.
func New10G(seed int64) (*Pair, error) {
	return New(seed, core.Profile10G(), fabric.DirectCable10G(), 32<<20)
}

// New100G is the 100 G testbed with 32 MB buffers.
func New100G(seed int64) (*Pair, error) {
	return New(seed, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
}
