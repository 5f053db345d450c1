package experiments

import (
	"errors"
	"fmt"
	"io"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/kvserve"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
	"strom/internal/workload"
)

// The chaos-kv-large scenario is the torn-read capstone: the KV
// dataplane's large-value path (CRC-guarded out-of-line extents read
// through the NIC-side consistency kernel) driven into deliberate
// read/overwrite races. A dedicated racer process overwrites a small
// set of hot spilled keys back-to-back while the main workload reads
// them, so a Get's slot read and its kernel extent read keep straddling
// an in-place extent overwrite — the exact window the version-stamped
// publish ordering turns from silent corruption into a detected,
// retried torn read. Escalating regimes stack Gilbert-Elliott loss and
// crash/restart cycles on top of the race; the audit fails the run on
// any torn value served, and the crash points must prove orphan
// extents (written but never published) are reaped, never served.
//
// The topology is four machines on the PFC/ECN switch: m0 runs the
// client (two sessions: workload + racer), m1-m3 the servers.

const (
	kvlClientM  = 0
	kvlServerM  = 1
	kvlServers  = 3
	kvlMachines = 4
)

// kvlKeys keeps the key space small enough that the zipfian head keys
// see many versions; the hot keys live outside the zipfian draw.
const kvlKeys = 256

// kvlHotKeys are the racer's targets — one per shard, so every server's
// extent arena sees the in-place overwrite race, and the crash cycles
// (shards 0 and 2) land on hot primaries mid-publish.
var kvlHotKeys = []uint64{4, 5, 6}

// kvlFaults selects one chaos-kv-large sweep point's regime. racing is
// the scenario's reason to exist; loss and crashes stack onto it.
type kvlFaults struct {
	racing  bool // racer process overwriting the hot spilled keys
	loss    bool // Gilbert-Elliott loss + dup + reorder on server links
	crashes bool // staggered crash/restart cycles on shards 0 and 2
}

func (f kvlFaults) label() string {
	switch {
	case f.crashes:
		return "crash"
	case f.loss:
		return "loss"
	case f.racing:
		return "racing"
	}
	return "clean"
}

// kvlMeasure is one chaos-kv-large point's outcome.
type kvlMeasure struct {
	acked         uint64
	largePuts     uint64
	gets          uint64
	spilledReads  uint64
	tornDetected  uint64
	tornRetries   uint64
	tornFailovers uint64
	orphansReaped uint64
	retries       uint64
	failovers     uint64
	repairs       uint64
	detectorFires uint64
	faults        uint64
	violations    int
}

// runKVLarge drives one chaos-kv-large point and (optionally) writes
// the telemetry exports. The run fails — rather than producing a
// measurement — on any torn value served, lost acked write, misapplied
// slot or extent, arena leak, or non-convergent deficit; the racing
// points additionally fail if no torn read was detected and retried,
// and the crash points if no orphan extent was reaped.
func runKVLarge(o Options, f kvlFaults, metricsW, traceW, jsonlW io.Writer) (kvlMeasure, error) {
	o = o.normalized()
	net, err := testrig.NewNet(o.Seed, kvlMachines, core.Profile10G(), IncastSwitchConfig(), 1<<20)
	if err != nil {
		return kvlMeasure{}, err
	}
	checkers := net.AttachCheckers()
	if f.racing {
		// The racer overwrites slots and extents its own reads are
		// in flight against, so a chaos-duplicated READ replayed by the
		// responder can legitimately serve post-overwrite bytes.
		for _, ck := range checkers {
			ck.SetVolatileReads(true)
		}
	}

	reg := telemetry.NewRegistry()
	var tb *telemetry.TraceBuffer
	if metricsW != nil || traceW != nil {
		tb = telemetry.NewTrace(net.SwEng)
		for i, m := range net.Machines {
			m.NIC.AttachTelemetry(reg, tb, uint32(i+1), fmt.Sprintf("m%d", i))
		}
	}

	servers := make([]int, kvlServers)
	for i := range servers {
		servers[i] = kvlServerM + i
	}
	cl, err := kvserve.New(net, kvserve.Config{
		ClientMachine:  kvlClientM,
		ServerMachines: servers,
		NumKeys:        kvlKeys,
		OpDeadline:     600 * sim.Microsecond,
		Backoff:        sim.Backoff{Base: 50 * sim.Microsecond, Max: 800 * sim.Microsecond, Factor: 2, Jitter: 0.5},
		MaxAttempts:    4,
		TornBudget:     3,
		Sessions:       2, // workload + racer
		HeartbeatEvery: 50 * sim.Microsecond,
		Registry:       reg,
	})
	if err != nil {
		return kvlMeasure{}, err
	}

	// Failure detection runs the production path: heartbeat watchdog,
	// alert-driven shard map. The torn-read rate rule ships in
	// DefaultRules and watches the client's kv_torn_detected surface.
	rec := export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
	cl.RegisterHealth(rec)
	cl.AttachController(rec)
	if jsonlW != nil {
		net.RecordJSONL(rec)
		rec.Registry(net.SwEng, "testbed", reg)
	}
	rec.Start(20 * sim.Microsecond)

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

	// Crash cycles land on the hot keys' shards: every racer op caught
	// between its extent write and its slot publish leaves an orphan
	// image the post-restart repair or the next overwrite must reap.
	// The four cycles never overlap, so no shard ever loses both
	// replicas and every acked write survives.
	var barrier sim.Time
	if f.crashes {
		cl.CrashCycle(0, sim.Time(600*sim.Microsecond), 800*sim.Microsecond)
		cl.CrashCycle(2, sim.Time(1600*sim.Microsecond), 800*sim.Microsecond)
		cl.CrashCycle(0, sim.Time(2600*sim.Microsecond), 800*sim.Microsecond)
		cl.CrashCycle(2, sim.Time(3600*sim.Microsecond), 800*sim.Microsecond)
		barrier = sim.Time(5500 * sim.Microsecond)
	}

	zipf, err := workload.NewZipfian(kvlKeys, 0.9, o.Seed, true)
	if err != nil {
		return kvlMeasure{}, err
	}
	// coldKey remaps zipfian draws off the hot keys: cold keys have a
	// single writer process, so inline puts and deletes never race a
	// spill on the same key (the hot keys are exclusively PutLarge/Get —
	// an in-place extent overwrite race, never a free/realloc race).
	coldKey := func() uint64 {
		k := uint64(zipf.Next()) + 1
		for _, h := range kvlHotKeys {
			if k == h {
				return k + uint64(len(kvlHotKeys))
			}
		}
		return k
	}

	c := cl.Client
	eng := net.Machines[kvlClientM].Eng
	rng := eng.Rand()
	// ErrPeerCrashed rides along with the crash cycles: an op can reach
	// a just-crashed server before the heartbeat watchdog marks it down,
	// and the failed reconnect is what teaches the client (MarkDown).
	// ErrTooManyReads is loss backpressure: delayed ACKs keep kernel
	// reads in flight until their deadline, so a burst of hot-key Gets
	// can exhaust the per-QP read budget; the op fails cleanly without
	// weakening any exactly-once or torn-read guarantee.
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, kvserve.ErrUnavailable) ||
			errors.Is(err, kvserve.ErrStale) || errors.Is(err, kvserve.ErrTorn) ||
			errors.Is(err, sim.ErrDeadlineExceeded) || errors.Is(err, roce.ErrPeerCrashed) ||
			errors.Is(err, roce.ErrTooManyReads)
	}

	// The racer: back-to-back in-place overwrites of the hot spilled
	// keys, as fast as the put path allows. Its writes are what the main
	// workload's hot-key Gets tear against.
	racerOps := 0
	if f.racing {
		racerOps = 60 * o.Iterations
	}
	racerDone := racerOps == 0
	var racerErr error
	if f.racing {
		eng.Go("kv-racer", func(p *sim.Process) {
			defer func() { racerDone = true }()
			for i := 0; i < racerOps; i++ {
				if err := c.PutLarge(p, kvlHotKeys[i%len(kvlHotKeys)]); !tolerated(err) {
					racerErr = fmt.Errorf("racer op %d: %w", i, err)
					return
				}
			}
		})
	}

	ops := 100 * o.Iterations
	var runErr error
	eng.Go("kv-client", func(p *sim.Process) {
		// Warm the hot keys so every point (including clean) exercises
		// the spill path and the kernel read.
		for _, h := range kvlHotKeys {
			if err := c.PutLarge(p, h); !tolerated(err) {
				runErr = fmt.Errorf("warmup key %d: %w", h, err)
				return
			}
		}
		for i := 0; i < ops; i++ {
			if c.RepairDue() {
				c.Repair(p)
			}
			var err error
			switch r := rng.Intn(100); {
			case r < 35:
				// Hot-key reads: the torn-read collision surface.
				_, _, err = c.Get(p, kvlHotKeys[rng.Intn(len(kvlHotKeys))])
			case r < 55:
				err = c.PutLarge(p, coldKey())
			case r < 70:
				err = c.Put(p, coldKey())
			case r < 90:
				_, _, err = c.Get(p, coldKey())
			default:
				err = c.Delete(p, coldKey())
			}
			if !tolerated(err) {
				runErr = fmt.Errorf("op %d: %w", i, err)
				return
			}
		}
		// Converge only after the racer has stopped moving versions.
		for !racerDone {
			p.Sleep(50 * sim.Microsecond)
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
		return kvlMeasure{}, fmt.Errorf("chaos-kv-large %s: %w", f.label(), runErr)
	}
	if racerErr != nil {
		return kvlMeasure{}, fmt.Errorf("chaos-kv-large %s: %w", f.label(), racerErr)
	}

	// The guarantee gate: checker invariants, convergence, the online
	// violation counters (torn-served above all), and the host-side
	// ground-truth audit of every slot and extent ever written.
	var vio []string
	for _, ck := range checkers {
		vio = append(vio, ck.Finish()...)
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
	if c.Stats.TornServed != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: %d torn large values crossed the serve boundary", c.Stats.TornServed))
	}
	vio = append(vio, cl.Audit()...)

	m := kvlMeasure{
		acked:         c.Stats.AckedPuts,
		largePuts:     c.Stats.LargePuts,
		gets:          c.Stats.Gets,
		spilledReads:  c.Stats.SpilledReads,
		tornDetected:  c.Stats.TornDetected,
		tornRetries:   c.Stats.TornRetries,
		tornFailovers: c.Stats.TornFailovers,
		orphansReaped: c.Stats.OrphansReaped,
		retries:       c.Stats.Retries,
		failovers:     c.Stats.Failovers,
		repairs:       c.Stats.Repairs,
		detectorFires: rec.Fired(kvserve.HeartbeatRule().Name),
		violations:    len(vio),
	}
	for _, s := range sites {
		m.faults += s.Stats().Total()
	}
	if len(vio) > 0 {
		return m, fmt.Errorf("chaos-kv-large %s: %d violations:\n%s", f.label(), len(vio), vio[0])
	}
	if m.spilledReads == 0 {
		return m, fmt.Errorf("chaos-kv-large %s: no Get went through the consistency kernel: %+v", f.label(), c.Stats)
	}
	if f.racing && (m.tornDetected == 0 || m.tornRetries == 0) {
		return m, fmt.Errorf("chaos-kv-large %s: racing phase produced no detected+retried torn read: %+v", f.label(), c.Stats)
	}
	if !f.racing && m.tornDetected != 0 {
		return m, fmt.Errorf("chaos-kv-large %s: torn reads without a racer: %+v", f.label(), c.Stats)
	}
	if f.crashes && m.orphansReaped == 0 {
		return m, fmt.Errorf("chaos-kv-large %s: crash cycles left no orphan to reap: %+v", f.label(), c.Stats)
	}
	if f.crashes && (m.detectorFires == 0 || m.repairs == 0) {
		return m, fmt.Errorf("chaos-kv-large %s: crash regime never exercised detection/repair: %+v", f.label(), c.Stats)
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

// kvlSweepPoints is the chaos-kv-large sweep's x axis: the bare
// dataplane, then the race, then loss and crashes stacked onto it.
var kvlSweepPoints = []kvlFaults{
	{},
	{racing: true},
	{racing: true, loss: true},
	{racing: true, loss: true, crashes: true},
}

// ChaosKVLargeSweep runs the large-value dataplane through the four
// regimes and reports the torn-read pipeline's work next to the op
// counters. Any torn value served fails the sweep instead of plotting.
func ChaosKVLargeSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Chaos: large-value KV under racing overwrites, loss and crashes", "fault regime", "see series")
	series := []*stats.Series{
		fig.NewSeries("acked puts"),
		fig.NewSeries("large puts"),
		fig.NewSeries("get ops"),
		fig.NewSeries("spilled reads"),
		fig.NewSeries("torn detected"),
		fig.NewSeries("torn retries"),
		fig.NewSeries("torn failovers"),
		fig.NewSeries("orphans reaped"),
		fig.NewSeries("retries"),
		fig.NewSeries("failovers"),
		fig.NewSeries("repairs"),
		fig.NewSeries("detector fires"),
		fig.NewSeries("faults injected"),
		fig.NewSeries("violations"),
	}
	for i, f := range kvlSweepPoints {
		m, err := runKVLarge(o, f, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		x, label := float64(i), f.label()
		vals := []float64{
			float64(m.acked), float64(m.largePuts), float64(m.gets), float64(m.spilledReads),
			float64(m.tornDetected), float64(m.tornRetries), float64(m.tornFailovers),
			float64(m.orphansReaped), float64(m.retries), float64(m.failovers),
			float64(m.repairs), float64(m.detectorFires), float64(m.faults), float64(m.violations),
		}
		for si, v := range vals {
			series[si].Add(x, label, v)
		}
	}
	return fig, nil
}

// WriteKVLargeTelemetryExports is the exportable chaos-kv-large
// scenario: the full regime (racing + loss + crashes) streamed through
// the JSONL recorder. The torn-read rate rule must fire — the racing
// phases guarantee detections — and a monitoring consumer (make soak,
// stromtail) requires it alongside kv-heartbeat. The output is
// byte-identical at any -j.
func WriteKVLargeTelemetryExports(o Options, metricsW, traceW, jsonlW io.Writer) error {
	_, err := runKVLarge(o, kvlFaults{racing: true, loss: true, crashes: true}, metricsW, traceW, jsonlW)
	return err
}
