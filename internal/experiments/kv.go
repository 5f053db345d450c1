package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/kvserve"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
	"strom/internal/workload"
)

// The chaos-kv scenario is the robustness capstone: the replicated
// sharded KV dataplane (internal/kvserve) driven by a skewed workload
// through escalating fault regimes on the switched testbed, with the
// exactly-once guarantee audited against ground truth at every point.
// The topology is seven machines on one PFC/ECN switch:
//
//	m0    KV client (shard map, versions, retry protocol)
//	m1-m3 KV servers (primary shard i-1, backup of its predecessor)
//	m4-m5 incast blasters hammering a server's blast region
//	m6    rogue requester forging accesses into a server's KV memory
//
// Failure detection runs the production path even when no JSONL export
// is requested: every server's heartbeat is scraped by a recorder whose
// rule set includes the kv-heartbeat no-progress watchdog, and the
// resulting alerts drive the client's shard map through
// Cluster.AttachController.

// Machine roles in the chaos-kv topology.
const (
	kvClientM   = 0
	kvServerM   = 1 // machines 1..3 carry shards 0..2
	kvServers   = 3
	kvBlasterAM = 4
	kvBlasterBM = 5
	kvRogueM    = 6
	kvMachines  = 7
)

// kvKeys is the key-space size; with ~150 ops per iteration unit the
// zipfian head keys see many versions while the tail stays cold.
const kvKeys = 4096

// kvFaults selects one chaos-kv sweep point's fault regime. Each level
// implies the previous ones in the sweep (clean -> loss -> crash ->
// storm), but the flags are independent so tests can isolate a regime.
type kvFaults struct {
	loss    bool // Gilbert-Elliott loss + dup + reorder on every server link
	crashes bool // staggered crash/restart cycles on shards 0 and 2
	storm   bool // incast blasters into shard 1's blast region + rogue forgery
}

func (f kvFaults) label() string {
	switch {
	case f.storm:
		return "storm"
	case f.crashes:
		return "crash"
	case f.loss:
		return "loss"
	}
	return "clean"
}

// kvMeasure is one chaos-kv point's outcome.
type kvMeasure struct {
	putP50, putP99, putP999 sim.Duration
	getP50, getP99, getP999 sim.Duration

	acked         uint64
	unacked       uint64
	gets          uint64
	retries       uint64
	failovers     uint64
	dupSuppressed uint64
	staleRerouted uint64
	rkeyRefetches uint64
	repairs       uint64
	detectorFires uint64
	faults        uint64
	violations    int
}

// latQuantile returns the q-quantile of the samples (nearest rank).
func latQuantile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

// kvLinkFaults is the per-direction impairment of the loss regimes:
// the 2% bursty-loss mix with light duplication and reordering, enough
// to exercise retries and the duplicate-suppression probe without
// starving the workload.
func kvLinkFaults() chaos.LinkFaults {
	return chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.02),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
}

// runKV drives one chaos-kv point and (optionally) writes the telemetry
// exports. The run fails — rather than producing a measurement — on any
// lost acked write, duplicate-applied Put, stale read past an acked
// version, protocol invariant violation, rogue success, or
// non-convergent deficit.
func runKV(o Options, f kvFaults, metricsW, traceW, jsonlW io.Writer) (kvMeasure, error) {
	o = o.normalized()
	net, err := testrig.NewNet(o.Seed, kvMachines, core.Profile10G(), IncastSwitchConfig(), 1<<20)
	if err != nil {
		return kvMeasure{}, err
	}
	checkers := net.AttachCheckers()

	// The client's op-latency histograms always live in a registry (the
	// sweep reads quantiles from raw samples; the registry feeds the
	// op-latency-p99 alert rule when the point streams JSONL).
	reg := telemetry.NewRegistry()
	var tb *telemetry.TraceBuffer
	if metricsW != nil || traceW != nil {
		tb = telemetry.NewTrace(net.SwEng)
		for i, m := range net.Machines {
			m.NIC.AttachTelemetry(reg, tb, uint32(i+1), fmt.Sprintf("m%d", i))
		}
	}

	servers := make([]int, kvServers)
	for i := range servers {
		servers[i] = kvServerM + i
	}
	cl, err := kvserve.New(net, kvserve.Config{
		ClientMachine:  kvClientM,
		ServerMachines: servers,
		NumKeys:        kvKeys,
		BlastBytes:     256 << 10,
		OpDeadline:     600 * sim.Microsecond,
		Backoff:        sim.Backoff{Base: 50 * sim.Microsecond, Max: 800 * sim.Microsecond, Factor: 2, Jitter: 0.5},
		MaxAttempts:    4,
		HeartbeatEvery: 50 * sim.Microsecond,
		Registry:       reg,
	})
	if err != nil {
		return kvMeasure{}, err
	}

	// Failure detection and failover always run through the telemetry
	// machinery: heartbeat sources, the kv-heartbeat watchdog, and the
	// alert-driven shard-map controller.
	rec := export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
	cl.RegisterHealth(rec)
	cl.AttachController(rec)
	if jsonlW != nil {
		net.RecordJSONL(rec)
		rec.Registry(net.SwEng, "testbed", reg)
	}
	rec.Start(20 * sim.Microsecond)

	// Fault regime: bursty loss on every server link, both directions
	// (the NIC-side uplink carries requests and ACKs toward the switch,
	// the switch egress carries them toward the server).
	var sites []*chaos.FaultSite
	if f.loss {
		for _, mi := range servers {
			m := net.Machines[mi]
			up := chaos.NewFaultSite(m.Eng, fmt.Sprintf("m%d-up", mi), kvLinkFaults(), nil, 0)
			down := chaos.NewFaultSite(net.SwEng, fmt.Sprintf("m%d-down", mi), kvLinkFaults(), nil, 0)
			m.Port.SetFaults(up)
			net.Sw.SetEgressFaults(mi, down)
			sites = append(sites, up, down)
		}
	}

	// Crash cycles: shard 0's server dies early, shard 2's mid-run; the
	// cycles are staggered so the cluster never loses both replicas of
	// any shard and every acked write survives.
	var barrier sim.Time
	if f.crashes {
		cl.CrashCycle(0, sim.Time(600*sim.Microsecond), 1200*sim.Microsecond)
		cl.CrashCycle(2, sim.Time(2200*sim.Microsecond), 1200*sim.Microsecond)
		barrier = sim.Time(4 * sim.Millisecond)
	}

	// Storm: two blasters pour 4 KB write trains into shard 1's blast
	// region (same machine the KV traffic hits, disjoint memory), in two
	// waves that congest the server's switch port mid-workload; a rogue
	// forges accesses into the same server's registered buffer, which
	// must all be NAK'd.
	blastErrs := make([]error, kvMachines)
	blastLeft := make([]int, kvMachines)
	var rogue *chaos.Rogue
	if f.storm {
		blastVA, blastLen, _ := cl.BlastTarget(1)
		victim := servers[1]
		wave := 6 * o.Iterations
		for bi, mi := range []int{kvBlasterAM, kvBlasterBM} {
			qp, _, cerr := net.Connect(mi, victim)
			if cerr != nil {
				return kvMeasure{}, cerr
			}
			src := net.Machines[mi]
			dst := uint64(blastVA) + uint64(bi)*uint64(blastLen/2)
			blastLeft[mi] = 2 * wave
			post := func() {
				for w := 0; w < wave; w++ {
					src.NIC.PostWrite(qp, uint64(src.Buf.Base()), dst, incastXfer, func(err error) {
						if err != nil {
							if blastErrs[mi] == nil {
								blastErrs[mi] = err
							}
							return
						}
						blastLeft[mi]--
					})
				}
			}
			src.Eng.ScheduleAt(sim.Time(500*sim.Microsecond), post)
			src.Eng.ScheduleAt(sim.Time(2500*sim.Microsecond), post)
		}

		vm := net.Machines[victim]
		rqp, sqp, cerr := net.Connect(kvRogueM, victim)
		if cerr != nil {
			return kvMeasure{}, cerr
		}
		rogue, err = chaos.NewRogue(net.Machines[kvRogueM].NIC, chaos.RogueConfig{
			QPN:     rqp,
			LocalVA: uint64(net.Machines[kvRogueM].Buf.Base()),
			Target: chaos.RogueTarget{
				Base: uint64(vm.Buf.Base()),
				Size: uint64(vm.Buf.Size()),
				Key: func() uint32 {
					if r := vm.NIC.RegionFor(uint64(vm.Buf.Base())); r != nil {
						return r.RKey()
					}
					return 0
				},
			},
			Ops:        8,
			OpDeadline: 500 * sim.Microsecond,
			Backoff:    30 * sim.Microsecond,
			Reconnect:  func() error { return net.ReconnectPair(kvRogueM, victim, rqp, sqp) },
		}, nil)
		if err != nil {
			return kvMeasure{}, err
		}
		rogue.Start()
	}

	// Skewed workload: zipfian keys, 60% Put / 35% Get / 5% Delete. The
	// client repairs recovered servers opportunistically between ops and
	// converges every deficit once the last scheduled restart is past.
	zipf, err := workload.NewZipfian(kvKeys, 0.9, o.Seed, true)
	if err != nil {
		return kvMeasure{}, err
	}
	ops := 150 * o.Iterations
	c := cl.Client
	eng := net.Machines[kvClientM].Eng
	rng := eng.Rand()
	var runErr error
	eng.Go("kv-client", func(p *sim.Process) {
		for i := 0; i < ops; i++ {
			if c.RepairDue() {
				c.Repair(p)
			}
			key := uint64(zipf.Next()) + 1
			var err error
			switch r := rng.Intn(100); {
			case r < 60:
				err = c.Put(p, key)
			case r < 95:
				_, _, err = c.Get(p, key)
			default:
				err = c.Delete(p, key)
			}
			// Unavailability (both replicas of a shard down) and failed
			// reads under faults are expected and counted; anything else
			// is a protocol bug.
			if err != nil && !errors.Is(err, kvserve.ErrUnavailable) &&
				!errors.Is(err, kvserve.ErrStale) && !errors.Is(err, sim.ErrDeadlineExceeded) {
				runErr = fmt.Errorf("op %d key %d: %w", i, key, err)
				return
			}
		}
		if now := p.Now(); now < barrier {
			p.Sleep(barrier.Sub(now))
		}
		for tries := 0; tries < 5 && (c.RepairDue() || c.Deficits() > 0); tries++ {
			c.RepairAll(p)
		}
	})

	if tb != nil {
		telemetry.Probe(net.SwEng, 2*sim.Microsecond, func(sim.Time) {
			for _, m := range net.Machines {
				m.NIC.TelemetrySample()
			}
		})
	}
	net.Run()

	if runErr != nil {
		return kvMeasure{}, fmt.Errorf("chaos-kv %s: %w", f.label(), runErr)
	}
	for mi, e := range blastErrs {
		if e != nil {
			return kvMeasure{}, fmt.Errorf("chaos-kv %s: blaster m%d: %w", f.label(), mi, e)
		}
	}
	for mi, l := range blastLeft {
		if l != 0 {
			return kvMeasure{}, fmt.Errorf("chaos-kv %s: blaster m%d stalled with %d writes left", f.label(), mi, l)
		}
	}

	// The guarantee gate: checker invariants, rogue containment, shard
	// convergence, the client's online violation counters, and the
	// host-side ground-truth audit of every slot ever written.
	var vio []string
	for _, ck := range checkers {
		vio = append(vio, ck.Finish()...)
	}
	if rogue != nil && rogue.Stats().Unexpected > 0 {
		vio = append(vio, fmt.Sprintf("rogue: %d forged requests completed (protection failed)", rogue.Stats().Unexpected))
	}
	if d := c.Deficits(); d != 0 {
		vio = append(vio, fmt.Sprintf("convergence: %d replica writes still owed after RepairAll", d))
	}
	if c.Stats.StaleServed != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: %d Gets served stale past an acked version", c.Stats.StaleServed))
	}
	if c.Stats.Misapplied != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: %d slots observed with misapplied bytes", c.Stats.Misapplied))
	}
	vio = append(vio, cl.Audit()...)
	m := kvMeasure{
		putP50:        latQuantile(c.PutLat, 0.50),
		putP99:        latQuantile(c.PutLat, 0.99),
		putP999:       latQuantile(c.PutLat, 0.999),
		getP50:        latQuantile(c.GetLat, 0.50),
		getP99:        latQuantile(c.GetLat, 0.99),
		getP999:       latQuantile(c.GetLat, 0.999),
		acked:         c.Stats.AckedPuts,
		unacked:       c.Stats.UnackedPuts,
		gets:          c.Stats.Gets,
		retries:       c.Stats.Retries,
		failovers:     c.Stats.Failovers,
		dupSuppressed: c.Stats.DupSuppressed,
		staleRerouted: c.Stats.StaleRerouted,
		rkeyRefetches: c.Stats.RKeyRefetches,
		repairs:       c.Stats.Repairs,
		detectorFires: rec.Fired(kvserve.HeartbeatRule().Name),
		violations:    len(vio),
	}
	for _, s := range sites {
		m.faults += s.Stats().Total()
	}
	if len(vio) > 0 {
		return m, fmt.Errorf("chaos-kv %s: %d violations:\n%s", f.label(), len(vio), strings.Join(vio, "\n"))
	}
	if f.crashes && (m.detectorFires == 0 || m.failovers == 0 || m.repairs == 0) {
		return m, fmt.Errorf("chaos-kv %s: crash regime never exercised detection/failover/repair: %+v", f.label(), c.Stats)
	}

	if metricsW != nil {
		if err := reg.WriteJSON(metricsW); err != nil {
			return m, err
		}
	}
	if traceW != nil {
		if err := tb.WriteJSON(traceW); err != nil {
			return m, err
		}
	}
	if jsonlW != nil {
		if err := rec.WriteJSONL(jsonlW); err != nil {
			return m, err
		}
	}
	return m, nil
}

// kvSweepPoints is the chaos-kv sweep's x axis: escalating fault
// regimes, each including the previous.
var kvSweepPoints = []kvFaults{
	{},
	{loss: true},
	{loss: true, crashes: true},
	{loss: true, crashes: true, storm: true},
}

// ChaosKVSweep runs the replicated KV dataplane through the four fault
// regimes and reports op latency next to the protocol's work counters.
// Any exactly-once violation fails the sweep instead of plotting.
func ChaosKVSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Chaos: replicated KV under loss, crashes and storms", "fault regime", "see series")
	series := []*stats.Series{
		fig.NewSeries("put p50 (us)"),
		fig.NewSeries("put p99 (us)"),
		fig.NewSeries("put p999 (us)"),
		fig.NewSeries("get p50 (us)"),
		fig.NewSeries("get p99 (us)"),
		fig.NewSeries("get p999 (us)"),
		fig.NewSeries("acked puts"),
		fig.NewSeries("get ops"),
		fig.NewSeries("retries"),
		fig.NewSeries("failovers"),
		fig.NewSeries("dup suppressed"),
		fig.NewSeries("stale rerouted"),
		fig.NewSeries("rkey refetches"),
		fig.NewSeries("repairs"),
		fig.NewSeries("detector fires"),
		fig.NewSeries("faults injected"),
		fig.NewSeries("violations"),
	}
	for i, f := range kvSweepPoints {
		m, err := runKV(o, f, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		x, label := float64(i), f.label()
		vals := []float64{
			m.putP50.Microseconds(), m.putP99.Microseconds(), m.putP999.Microseconds(),
			m.getP50.Microseconds(), m.getP99.Microseconds(), m.getP999.Microseconds(),
			float64(m.acked), float64(m.gets), float64(m.retries), float64(m.failovers),
			float64(m.dupSuppressed), float64(m.staleRerouted), float64(m.rkeyRefetches),
			float64(m.repairs), float64(m.detectorFires), float64(m.faults), float64(m.violations),
		}
		for si, v := range vals {
			series[si].Add(x, label, v)
		}
	}
	return fig, nil
}

// WriteKVTelemetry runs the full chaos-kv storm and writes the metrics
// registry and Perfetto trace (the -kv strombench scenario).
func WriteKVTelemetry(o Options, metricsW, traceW io.Writer) error {
	return WriteKVTelemetryExports(o, metricsW, traceW, nil)
}

// WriteKVTelemetryExports is the exportable chaos-kv scenario: the storm
// regime (loss + crashes + incast + rogue) streamed through the JSONL
// recorder with the kv-heartbeat watchdog in the rule set. The
// kv-heartbeat alert must fire (the crash cycles guarantee frozen
// heartbeats) and retry-storm fires on seeds where a loss burst lands in
// a retransmission train; a monitoring consumer (make soak, stromtail)
// requires the former. The output is byte-identical at any -j.
func WriteKVTelemetryExports(o Options, metricsW, traceW, jsonlW io.Writer) error {
	_, err := runKV(o, kvFaults{loss: true, crashes: true, storm: true}, metricsW, traceW, jsonlW)
	return err
}
