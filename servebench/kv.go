package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/experiments"
	"strom/internal/kvserve"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// kvSpec sizes one replicated-KV workload: one client machine and three
// primary-backup servers on the PFC/ECN switch.
type kvSpec struct {
	sessions int     // closed-loop client sessions
	keys     int     // key space, all preloaded
	theta    float64 // Zipf skew of the key draw
	putShare float64 // share of ops that write
	large    bool    // writes spill to CRC64 extents (PutLarge)
	loss     float64 // Gilbert-Elliott average loss on every server link, both directions
	ops      int     // measured ops per round
}

var (
	kvInlineSpec = kvSpec{sessions: 8, keys: 16 << 10, theta: 0.99, putShare: 0.10, ops: 120_000}
	// kvLargeSpec runs one session: under loss, two or more concurrent
	// sessions leak per-QP read credits until every Get fails with
	// roce.ErrTooManyReads (see TestKnownDefectConcurrentReadsUnderLoss).
	kvLargeSpec = kvSpec{sessions: 1, keys: 16 << 10, theta: 0.99, putShare: 0.50, large: true, loss: 0.01, ops: 120_000}
)

const (
	// scrapeEvery paces the telemetry recorder that drives the failover
	// controller (the heartbeat watchdog fires after 400 µs).
	scrapeEvery = 100 * sim.Microsecond

	kvServers  = 3
	kvMachines = 1 + kvServers
	kvBufBytes = 2 << 20
)

func runKVInline(o runOpts) (*outcome, error)     { return runKV(o, kvInlineSpec) }
func runKVLargeLossy(o runOpts) (*outcome, error) { return runKV(o, kvLargeSpec) }

// kvOp is one generated operation.
type kvOp struct {
	key uint64
	put bool
}

// genKVOps draws the measured op sequence from the seed: Zipf keys
// scattered over the key space by a seeded permutation, and the op mix.
func genKVOps(seed int64, spec kvSpec, n int) []kvOp {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(spec.keys)
	z := newZipf(spec.keys, spec.theta)
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = kvOp{key: uint64(perm[z.next(rng)]) + 1, put: rng.Float64() < spec.putShare}
	}
	return ops
}

// zipf draws ranks 0..n-1 with skew theta in (0,1) (Gray et al.,
// "Quickly generating billion-record synthetic databases").
type zipf struct {
	n                  int
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n int, theta float64) *zipf {
	var zn float64
	for i := 1; i <= n; i++ {
		zn += 1 / math.Pow(float64(i), theta)
	}
	z2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zeta: zn,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z2/zn),
		half: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zeta
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// runKV makes one round of a KV workload: set up and preload the
// cluster, run the closed loop, converge and check.
func runKV(o runOpts, spec kvSpec) (*outcome, error) {
	n := spec.ops
	if o.ops > 0 {
		n = o.ops
	}
	keys := spec.keys
	if o.keys > 0 {
		keys = o.keys
	}
	spec.keys = keys
	ops := genKVOps(o.seed, spec, n)

	out := &outcome{}
	runtime.GC()
	t0 := time.Now()
	net, err := testrig.NewNet(o.seed, kvMachines, core.Profile10G(), experiments.IncastSwitchConfig(), kvBufBytes)
	if err != nil {
		return nil, err
	}
	obs := attachObservers(net, o.traced)
	if spec.large {
		// Writers race readers on the same keys, so a duplicated READ the
		// responder re-executes can legitimately serve newer bytes.
		obs.setVolatileReads()
	}
	servers := make([]int, kvServers)
	for i := range servers {
		servers[i] = 1 + i
	}
	cl, err := kvserve.New(net, kvserve.Config{
		ClientMachine:  0,
		ServerMachines: servers,
		NumKeys:        uint64(keys),
		Sessions:       spec.sessions,
		Registry:       telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	rec := export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
	cl.RegisterHealth(rec)
	cl.AttachController(rec)
	rec.Start(scrapeEvery)

	c := cl.Client
	eng := net.Machines[0].Eng
	put := c.Put
	if spec.large {
		put = c.PutLarge
	}
	// Preload every key, fault-free, with the same session count.
	var preloadErr error
	nextKey := uint64(1)
	for s := 0; s < spec.sessions; s++ {
		eng.Go(fmt.Sprintf("preload-%d", s), func(p *sim.Process) {
			for nextKey <= uint64(keys) && preloadErr == nil {
				k := nextKey
				nextKey++
				if err := put(p, k); err != nil {
					preloadErr = fmt.Errorf("preload key %d: %w", k, err)
				}
			}
		})
	}
	net.Run()
	if preloadErr != nil {
		return nil, preloadErr
	}
	acked := make(map[uint64]uint64, keys)
	for k := uint64(1); k <= uint64(keys); k++ {
		acked[k] = c.Acked(k)
	}
	var sites []*chaos.FaultSite
	if spec.loss > 0 {
		lf := chaos.LinkFaults{Loss: chaos.BurstyLoss(spec.loss)}
		for _, mi := range servers {
			m := net.Machines[mi]
			up := chaos.NewFaultSite(m.Eng, fmt.Sprintf("m%d-up", mi), lf, nil, 0)
			down := chaos.NewFaultSite(net.SwEng, fmt.Sprintf("m%d-down", mi), lf, nil, 0)
			m.Port.SetFaults(up)
			net.Sw.SetEgressFaults(mi, down)
			sites = append(sites, up, down)
		}
	}
	out.setup = time.Since(t0)

	// Measured phase: closed-loop sessions pulling the next generated op.
	var (
		reads, writes    latencies
		fails            failCounts
		payload          uint64
		next             int
		lastDone         sim.Time
		vio              []string
		verbsAtStart     = net.Machines[0].NIC.Stack().Stats().OpsPosted
		clientAtStart    = c.Stats
		kernelsAtStart   = kernelStats(cl)
		wantVal          = kvserve.ValueFor
		start            = eng.Now()
		measureLayersBeg = netCounters(net)
		firedAtStart     = eng.Fired()
	)
	if spec.large {
		wantVal = kvserve.LargeValueFor
	}
	for s := 0; s < spec.sessions; s++ {
		eng.Go(fmt.Sprintf("session-%d", s), func(p *sim.Process) {
			for next < len(ops) {
				op := ops[next]
				next++
				t := p.Now()
				if op.put {
					ver := c.Issued(op.key) + 1 // the version this Put writes
					if err := put(p, op.key); err != nil {
						writes.fail()
						fails.count(err)
					} else {
						writes.add(p.Now().Sub(t))
						acked[op.key] = c.Acked(op.key)
						payload += uint64(len(wantVal(op.key, ver)))
					}
				} else {
					want := acked[op.key]
					slot, found, err := c.Get(p, op.key)
					if err != nil {
						reads.fail()
						fails.count(err)
					} else {
						reads.add(p.Now().Sub(t))
						if v := checkGet(op.key, want, slot, found, wantVal); v != "" {
							vio = append(vio, v)
						}
						payload += uint64(len(slot.Val))
					}
				}
				lastDone = p.Now()
			}
		})
	}
	var probe *simProbe
	out.host, probe = measure(net, obs, o)
	out.events = eng.Fired() - firedAtStart
	layers := diffCounters(measureLayersBeg, netCounters(net))
	if next < len(ops) {
		vio = append(vio, fmt.Sprintf("stalled: %d of %d ops never issued", len(ops)-next, len(ops)))
	}

	// Convergence and the correctness gate, outside the measured phase:
	// faults off, RepairAll, then the host-side audit.
	for _, mi := range servers {
		net.Machines[mi].Port.SetFaults(nil)
		net.Sw.SetEgressFaults(mi, nil)
	}
	eng.Go("repair", func(p *sim.Process) {
		for tries := 0; tries < 5 && (c.RepairDue() || c.Deficits() > 0); tries++ {
			c.RepairAll(p)
		}
	})
	net.Run()
	if o.inject {
		injectSlotCorruption(cl, ops[0].key)
	}
	vio = append(vio, obs.finish()...)
	if d := c.Deficits(); d != 0 {
		vio = append(vio, fmt.Sprintf("convergence: %d replica writes still owed after RepairAll", d))
	}
	if c.Stats.StaleServed != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: StaleServed=%d", c.Stats.StaleServed))
	}
	if c.Stats.Misapplied != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: Misapplied=%d", c.Stats.Misapplied))
	}
	if c.Stats.TornServed != 0 {
		vio = append(vio, fmt.Sprintf("guarantee: TornServed=%d", c.Stats.TornServed))
	}
	for _, a := range cl.Audit() {
		vio = append(vio, "audit: "+a)
	}
	if len(vio) > 0 {
		return nil, violationError(vio)
	}

	simDur := lastDone.Sub(start)
	out.sim = simMetrics{
		Attempted:    len(ops),
		Failed:       reads.failed + writes.failed,
		SimSeconds:   simDur.Seconds(),
		PayloadBytes: payload,
	}
	out.sim.setLatencies(&reads, &writes)

	// Layer counters of the measured phase.
	cs := c.Stats
	cs0 := clientAtStart
	kops := float64(len(ops))
	layers["kvserve.verbs_per_op"] = float64(net.Machines[0].NIC.Stack().Stats().OpsPosted-verbsAtStart) / kops
	ok := kops - float64(out.sim.Failed)
	layers["kvserve.useful_share"] = ok / (kops + float64(cs.Retries-cs0.Retries) + float64(cs.TornRetries-cs0.TornRetries))
	layers["kvserve.retries"] = float64(cs.Retries - cs0.Retries)
	layers["kvserve.failovers"] = float64(cs.Failovers - cs0.Failovers)
	layers["kvserve.repairs"] = float64(cs.Repairs - cs0.Repairs)
	layers["kvserve.dup_suppressed"] = float64(cs.DupSuppressed - cs0.DupSuppressed)
	layers["kvserve.spilled_reads"] = float64(cs.SpilledReads - cs0.SpilledReads)
	layers["kvserve.torn_detected"] = float64(cs.TornDetected - cs0.TornDetected)
	layers["kvserve.torn_retries"] = float64(cs.TornRetries - cs0.TornRetries)
	layers["kvserve.orphans_reaped"] = float64(cs.OrphansReaped - cs0.OrphansReaped)
	layers["kvserve.fail.read_depth"] = float64(fails.readDepth)
	layers["kvserve.fail.deadline"] = float64(fails.deadline)
	layers["kvserve.fail.unavailable"] = float64(fails.unavailable)
	layers["kvserve.fail.other"] = float64(fails.other)
	k1 := kernelStats(cl)
	layers["kernels.consistency.invocations"] = float64(k1.Invocations - kernelsAtStart.Invocations)
	layers["kernels.consistency.rereads"] = float64(k1.Rereads - kernelsAtStart.Rereads)
	layers["kernels.consistency.failures"] = float64(k1.Failures - kernelsAtStart.Failures)
	var faults, drops uint64
	for _, s := range sites {
		faults += s.Stats().Total()
		drops += s.Stats().Dropped
	}
	layers["chaos.faults_injected"] = float64(faults)
	layers["fabric.chaos_drops"] = float64(drops)
	finishLayers(layers, simDur, payload, len(net.Machines))
	obs.addTraced(layers, probe)
	out.layers = layers
	return out, nil
}

// checkGet is the benchmark's own check of a served value: the slot
// must belong to the key, be no older than the last write acked before
// the Get began, and carry exactly the value its version stamp implies.
func checkGet(key, want uint64, slot kvserve.Slot, found bool, val func(key, ver uint64) []byte) string {
	switch {
	case slot.Ver < want:
		return fmt.Sprintf("stale read: key %d served ver %d after ver %d was acked", key, slot.Ver, want)
	case !found:
		return fmt.Sprintf("missing key: preloaded key %d not found", key)
	case slot.Key != key:
		return fmt.Sprintf("wrong key: Get(%d) served key %d", key, slot.Key)
	case !bytes.Equal(slot.Val, val(key, slot.Ver)):
		return fmt.Sprintf("wrong value: key %d ver %d served %d B not matching its version", key, slot.Ver, len(slot.Val))
	}
	return ""
}

// failCounts classifies failed ops by cause.
type failCounts struct{ readDepth, deadline, unavailable, other int }

func (f *failCounts) count(err error) {
	switch {
	case errors.Is(err, roce.ErrTooManyReads):
		f.readDepth++
	case errors.Is(err, sim.ErrDeadlineExceeded):
		f.deadline++
	case errors.Is(err, kvserve.ErrUnavailable):
		f.unavailable++
	default:
		f.other++
	}
}

// kernelStats sums the consistency kernels' counters over the servers.
func kernelStats(cl *kvserve.Cluster) (s struct{ Invocations, Rereads, Failures uint64 }) {
	for _, k := range cl.Kernels {
		ks := k.Stats()
		s.Invocations += ks.Invocations
		s.Rereads += ks.Rereads
		s.Failures += ks.Failures
	}
	return s
}

// injectSlotCorruption sets the top bit of key's slot version on its
// primary replica, host-side: a planted phantom write the audit must
// report.
func injectSlotCorruption(cl *kvserve.Cluster, key uint64) {
	sh := cl.Lay.ShardOf(key)
	srv := cl.Servers[cl.Lay.PrimaryServer(sh)]
	va := cl.Lay.SlotAddr(srv.TableFor(cl.Lay, sh), key)
	mem := srv.M.NIC.Memory()
	b, err := mem.ReadVirt(va, kvserve.SlotSize)
	if err != nil {
		return
	}
	b[15] ^= 0x80 // most significant byte of the little-endian version
	_ = mem.WriteVirt(va, b)
}
