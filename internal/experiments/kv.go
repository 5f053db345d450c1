package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"strom/internal/chaos"
	"strom/internal/kvserve"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
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
	kvCounts
	putP50, putP99, putP999 sim.Duration
	getP50, getP99, getP999 sim.Duration

	unacked       uint64
	dupSuppressed uint64
	staleRerouted uint64
	rkeyRefetches uint64
}

// kvCounts are the work counters both KV regimes report.
type kvCounts struct {
	acked         uint64
	gets          uint64
	retries       uint64
	failovers     uint64
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

// kvRun is the setup chaos-kv and chaos-kv-large share: the switched
// testbed with invariant checkers, the kvserve cluster on it (client on
// m0, shard i's primary on m(i+1)), the recorder whose heartbeat
// watchdog drives the failover controller, the loss fault sites, and
// the barrier the convergence loop waits out.
type kvRun struct {
	*netRun
	cl      *kvserve.Cluster
	rec     *export.Recorder
	sites   []*chaos.FaultSite
	barrier sim.Time // last scheduled restart; set with the crash cycles
}

// newKVRun builds a KV run on a testbed of the given size. cfg carries
// the regime's own fields (key space, blast region, sessions); newKVRun
// sets the client, servers, deadlines, retry policy and registry both
// regimes share. loss installs the bursty-loss fault sites on every
// server link.
func newKVRun(o Options, machines int, cfg kvserve.Config, loss bool, w Exports) (*kvRun, error) {
	// The client's op-latency histograms always live in a registry (the
	// sweeps read quantiles from raw samples; the registry feeds the
	// op-latency-p99 alert rule when the run streams JSONL).
	nr, err := newNetRun(o, machines, telemetry.NewRegistry(), w)
	if err != nil {
		return nil, err
	}
	cfg.ClientMachine = kvClientM
	cfg.ServerMachines = make([]int, kvServers)
	for i := range cfg.ServerMachines {
		cfg.ServerMachines[i] = kvServerM + i
	}
	cfg.OpDeadline = 600 * sim.Microsecond
	cfg.Backoff = sim.Backoff{Base: 50 * sim.Microsecond, Max: 800 * sim.Microsecond, Factor: 2, Jitter: 0.5}
	cfg.MaxAttempts = 4
	cfg.HeartbeatEvery = 50 * sim.Microsecond
	cfg.Registry = nr.reg
	cl, err := kvserve.New(nr.Net, cfg)
	if err != nil {
		return nil, err
	}
	r := &kvRun{netRun: nr, cl: cl}

	// Failure detection and failover always run through the telemetry
	// machinery: heartbeat sources, the kv-heartbeat watchdog, and the
	// alert-driven shard-map controller.
	r.rec = export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
	cl.RegisterHealth(r.rec)
	cl.AttachController(r.rec)
	r.stream(r.rec)
	r.rec.Start(20 * sim.Microsecond)

	// The 2% bursty-loss mix on every server link, both directions (the
	// NIC-side uplink carries requests and ACKs toward the switch, the
	// switch egress carries them toward the server): enough to exercise
	// retries and the duplicate-suppression probe without starving the
	// workload.
	if loss {
		for _, mi := range cfg.ServerMachines {
			m := r.Machines[mi]
			up := chaos.NewFaultSite(m.Eng, fmt.Sprintf("m%d-up", mi), burstyFaults(0.02), nil, 0)
			down := chaos.NewFaultSite(r.SwEng, fmt.Sprintf("m%d-down", mi), burstyFaults(0.02), nil, 0)
			m.Port.SetFaults(up)
			r.Sw.SetEgressFaults(mi, down)
			r.sites = append(r.sites, up, down)
		}
	}
	return r, nil
}

// converge waits out the last scheduled restart, then repairs until
// every replica deficit is paid (or five passes have run).
func (r *kvRun) converge(p *sim.Process) {
	if now := p.Now(); now < r.barrier {
		p.Sleep(r.barrier.Sub(now))
	}
	c := r.cl.Client
	for tries := 0; tries < 5 && (c.RepairDue() || c.Deficits() > 0); tries++ {
		c.RepairAll(p)
	}
}

// run starts the occupancy probe and runs the testbed to completion.
// Call after scheduling the workload.
func (r *kvRun) run() {
	r.probe()
	r.Run()
}

// guarantees is the guarantee gate both regimes share: checker
// invariants, then the caller's extra findings, shard convergence, the
// client's online violation counters and the host-side ground-truth
// audit of every slot and extent ever written.
func (r *kvRun) guarantees(extra ...string) []string {
	vio := append(r.violations(), extra...)
	c := r.cl.Client
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
	return append(vio, r.cl.Audit()...)
}

// counts reads the shared work counters after the run: the client's op
// and recovery counts, the kv-heartbeat alerts raised, the frames the
// loss sites faulted, and the guarantee gate's violations.
func (r *kvRun) counts(vio []string) kvCounts {
	st := r.cl.Client.Stats
	n := kvCounts{
		acked:         st.AckedPuts,
		gets:          st.Gets,
		retries:       st.Retries,
		failovers:     st.Failovers,
		repairs:       st.Repairs,
		detectorFires: r.rec.Fired(kvserve.HeartbeatRule().Name),
		violations:    len(vio),
	}
	for _, s := range r.sites {
		n.faults += s.Stats().Total()
	}
	return n
}

// runKV drives one chaos-kv point and writes the requested exports. The
// run fails — rather than producing a measurement — on any lost acked
// write, duplicate-applied Put, stale read past an acked version,
// protocol invariant violation, rogue success, or non-convergent
// deficit.
func runKV(o Options, f kvFaults, w Exports) (kvMeasure, error) {
	o = o.normalized()
	run, err := newKVRun(o, kvMachines, kvserve.Config{NumKeys: kvKeys, BlastBytes: 256 << 10}, f.loss, w)
	if err != nil {
		return kvMeasure{}, err
	}
	net, cl, c := run.Net, run.cl, run.cl.Client

	// Crash cycles: shard 0's server dies early, shard 2's mid-run; the
	// cycles are staggered so the cluster never loses both replicas of
	// any shard and every acked write survives.
	if f.crashes {
		cl.CrashCycle(0, sim.Time(600*sim.Microsecond), 1200*sim.Microsecond)
		cl.CrashCycle(2, sim.Time(2200*sim.Microsecond), 1200*sim.Microsecond)
		run.barrier = sim.Time(4 * sim.Millisecond)
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
		victim := kvServerM + 1
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
		run.converge(p)
	})
	run.run()

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

	// The guarantee gate, with rogue containment on top.
	var rogueVio []string
	if rogue != nil && rogue.Stats().Unexpected > 0 {
		rogueVio = append(rogueVio, fmt.Sprintf("rogue: %d forged requests completed (protection failed)", rogue.Stats().Unexpected))
	}
	vio := run.guarantees(rogueVio...)
	m := kvMeasure{
		kvCounts:      run.counts(vio),
		putP50:        latQuantile(c.PutLat, 0.50),
		putP99:        latQuantile(c.PutLat, 0.99),
		putP999:       latQuantile(c.PutLat, 0.999),
		getP50:        latQuantile(c.GetLat, 0.50),
		getP99:        latQuantile(c.GetLat, 0.99),
		getP999:       latQuantile(c.GetLat, 0.999),
		unacked:       c.Stats.UnackedPuts,
		dupSuppressed: c.Stats.DupSuppressed,
		staleRerouted: c.Stats.StaleRerouted,
		rkeyRefetches: c.Stats.RKeyRefetches,
	}
	if len(vio) > 0 {
		return m, fmt.Errorf("chaos-kv %s: %d violations:\n%s", f.label(), len(vio), strings.Join(vio, "\n"))
	}
	if f.crashes && (m.detectorFires == 0 || m.failovers == 0 || m.repairs == 0) {
		return m, fmt.Errorf("chaos-kv %s: crash regime never exercised detection/failover/repair: %+v", f.label(), c.Stats)
	}
	return m, run.write(run.rec)
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
	fig, add := sweepFigure("Chaos: replicated KV under loss, crashes and storms", "fault regime",
		"put p50 (us)", "put p99 (us)", "put p999 (us)", "get p50 (us)", "get p99 (us)", "get p999 (us)",
		"acked puts", "get ops", "retries", "failovers", "dup suppressed", "stale rerouted",
		"rkey refetches", "repairs", "detector fires", "faults injected", "violations")
	for i, f := range kvSweepPoints {
		m, err := runKV(o, f, Exports{})
		if err != nil {
			return nil, err
		}
		add(float64(i), f.label(),
			m.putP50.Microseconds(), m.putP99.Microseconds(), m.putP999.Microseconds(),
			m.getP50.Microseconds(), m.getP99.Microseconds(), m.getP999.Microseconds(),
			float64(m.acked), float64(m.gets), float64(m.retries), float64(m.failovers),
			float64(m.dupSuppressed), float64(m.staleRerouted), float64(m.rkeyRefetches),
			float64(m.repairs), float64(m.detectorFires), float64(m.faults), float64(m.violations))
	}
	return fig, nil
}

// exportKV is the kv scenario: the chaos-kv storm regime (loss +
// crashes + incast + rogue) with the kv-heartbeat watchdog in the rule
// set. The kv-heartbeat alert must fire (the crash cycles guarantee
// frozen heartbeats) and retry-storm fires on seeds where a loss burst
// lands in a retransmission train; a monitoring consumer (make soak,
// stromtail) requires the former.
func exportKV(o Options, w Exports) error {
	_, err := runKV(o, kvFaults{loss: true, crashes: true, storm: true}, w)
	return err
}
