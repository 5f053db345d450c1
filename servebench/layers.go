package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"strom/internal/chaos"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// observers holds every machine's protocol invariant checker and, in a
// traced round, the tee recording verb latencies next to it.
type observers struct {
	checkers []*chaos.Checker
	tees     []*verbTee
}

// attachObservers installs a checker on every stack; traced rounds tee
// the observer stream into a verb-latency recorder.
func attachObservers(net *testrig.Net, traced bool) *observers {
	o := &observers{}
	for i, m := range net.Machines {
		st := m.NIC.Stack()
		ck := chaos.NewChecker(fmt.Sprintf("m%d", i), m.Eng, st.Config())
		o.checkers = append(o.checkers, ck)
		if !traced {
			st.SetObserver(ck)
			continue
		}
		t := &verbTee{Checker: ck, eng: m.Eng, posted: make(map[uint64]sim.Time)}
		o.tees = append(o.tees, t)
		st.SetObserver(t)
	}
	return o
}

func (o *observers) setVolatileReads() {
	for _, ck := range o.checkers {
		ck.SetVolatileReads(true)
	}
}

// finish closes every checker and returns its violations.
func (o *observers) finish() []string {
	var vio []string
	for _, ck := range o.checkers {
		for _, v := range ck.Finish() {
			vio = append(vio, "checker: "+v)
		}
	}
	return vio
}

// measure runs the measured phase of a round: the processes are
// already spawned, so it only drives the engine, timed on the host. A
// garbage collection first puts every round in the same heap state.
func measure(net *testrig.Net, obs *observers, o runOpts) (time.Duration, *simProbe) {
	runtime.GC()
	probe := obs.startMeasure(net)
	if o.hook != nil {
		o.hook(true)
	}
	t := time.Now()
	net.Run()
	host := time.Since(t)
	if o.hook != nil {
		o.hook(false)
	}
	obs.stopMeasure(probe)
	return host, probe
}

// startMeasure starts the traced round's measured-phase recording:
// verb latencies restart from zero and a daemon probe samples the
// engine's pending events and the switch's buffer occupancy.
func (o *observers) startMeasure(net *testrig.Net) *simProbe {
	p := &simProbe{}
	if o.tees == nil {
		return p
	}
	for _, t := range o.tees {
		t.lat = t.lat[:0]
		t.on = true
	}
	eng := net.SwEng
	var tick func()
	tick = func() {
		if p.stopped {
			return
		}
		pending, buf := eng.Pending(), net.Sw.BufferedBytes()
		p.samples++
		p.bufSum += float64(buf)
		if pending > p.pendingMax {
			p.pendingMax = pending
		}
		if buf > p.bufMax {
			p.bufMax = buf
		}
		eng.ScheduleDaemon(probeEvery, tick)
	}
	eng.ScheduleDaemon(0, tick)
	return p
}

// stopMeasure ends the measured-phase recording, so convergence and
// checking after it are not sampled.
func (o *observers) stopMeasure(p *simProbe) {
	p.stopped = true
	for _, t := range o.tees {
		t.on = false
	}
}

// probeEvery is the traced round's daemon sampling period.
const probeEvery = 5 * sim.Microsecond

// addTraced adds the traced-only layer metrics of the round.
func (o *observers) addTraced(layers map[string]float64, p *simProbe) {
	if o.tees == nil {
		return
	}
	var lat []sim.Duration
	for _, t := range o.tees {
		lat = append(lat, t.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	l := latencies{ok: lat}
	layers["roce.verb_p50_us"] = l.quantileUS(0.5)
	layers["roce.verb_p999_us"] = l.quantileUS(0.999)
	layers["sim.pending_max"] = float64(p.pendingMax)
	layers["fabric.switch.buffer_bytes_max"] = float64(p.bufMax)
	if p.samples > 0 {
		layers["fabric.switch.buffer_bytes_mean"] = p.bufSum / float64(p.samples)
	}
}

// simProbe holds the daemon probe's samples.
type simProbe struct {
	stopped    bool
	samples    int
	pendingMax int
	bufMax     int
	bufSum     float64
}

// verbTee forwards every observer call to the checker and records each
// verb's sim time from PostedOp to CompletedOp.
type verbTee struct {
	*chaos.Checker
	eng    *sim.Engine
	posted map[uint64]sim.Time
	lat    []sim.Duration
	on     bool
}

func (t *verbTee) PostedOp(qpn uint32, opID uint64, kind string) {
	t.posted[opID] = t.eng.Now()
	t.Checker.PostedOp(qpn, opID, kind)
}

func (t *verbTee) CompletedOp(qpn uint32, opID uint64, err error) {
	if at, ok := t.posted[opID]; ok {
		delete(t.posted, opID)
		if t.on && err == nil {
			t.lat = append(t.lat, t.eng.Now().Sub(at))
		}
	}
	t.Checker.CompletedOp(qpn, opID, err)
}

var _ roce.Observer = (*verbTee)(nil)

// netCounters snapshots the testbed's cumulative layer counters.
func netCounters(net *testrig.Net) map[string]float64 {
	c := make(map[string]float64)
	for _, m := range net.Machines {
		rs := m.NIC.Stack().Stats()
		c["roce.tx_packets"] += float64(rs.TxPackets)
		c["roce.retransmissions"] += float64(rs.Retransmissions)
		c["roce.timeouts"] += float64(rs.Timeouts)
		c["roce.dup_read_cache_hits"] += float64(rs.DupReadCacheHits)
		c["roce.deadline_expired"] += float64(rs.DeadlineExpired)
		c["roce.qp_errors"] += float64(rs.QPErrors)
		c["roce.paced_frames"] += float64(rs.PacedFrames)
		c["roce.cnps_received"] += float64(rs.CnpsReceived)

		ps := m.NIC.DMA().Stats()
		c["pcie.read_cmds"] += float64(ps.ReadCommands)
		c["pcie.write_cmds"] += float64(ps.WriteCommands)
		c["pcie.bytes"] += float64(ps.ReadBytes + ps.WriteBytes)
		c["pcie.split_segments"] += float64(ps.SplitSegments)
		h2c, c2h := m.NIC.DMA().Utilisation()
		now := float64(m.Eng.Now())
		c["pcie.h2c_busy_ps"] += h2c * now
		c["pcie.c2h_busy_ps"] += c2h * now

		ns := m.NIC.Stats()
		c["core.doorbells"] += float64(ns.Doorbells)
		c["core.rpcs_dispatched"] += float64(ns.RPCsDispatched)
		c["core.kernel_dma_reads"] += float64(ns.KernelDMAReads)
		c["core.kernel_dma_writes"] += float64(ns.KernelDMAWrites)
	}
	for i := 0; i < net.Sw.NumPorts(); i++ {
		sp := net.Sw.PortStats(i)
		c["fabric.frames"] += float64(sp.InFrames)
		c["fabric.wire_bytes"] += float64(sp.InBytes)
		c["fabric.switch.pfc_pauses"] += float64(sp.PauseTx)
		c["fabric.switch.ecn_marked"] += float64(sp.EcnMarked)
		c["fabric.switch.discards"] += float64(sp.Discards)
	}
	return c
}

// diffCounters returns end minus start for every counter.
func diffCounters(start, end map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(end))
	for k, v := range end {
		d[k] = v - start[k]
	}
	return d
}

// finishLayers turns the measured phase's raw counters into the
// reported ratios; PCIe utilisation is the mean over the machines.
func finishLayers(layers map[string]float64, simDur sim.Duration, payload uint64, machines int) {
	interval := float64(simDur) * float64(machines)
	layers["pcie.h2c_util"] = ratio(layers["pcie.h2c_busy_ps"], interval)
	layers["pcie.c2h_util"] = ratio(layers["pcie.c2h_busy_ps"], interval)
	delete(layers, "pcie.h2c_busy_ps")
	delete(layers, "pcie.c2h_busy_ps")
	layers["roce.retx_share"] = ratio(layers["roce.retransmissions"], layers["roce.tx_packets"])
	layers["fabric.payload_share"] = ratio(float64(payload), layers["fabric.wire_bytes"])
	layers["chaos.checker_violations"] = 0 // a violation fails the round before this point
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profileShares attributes the CPU profile's samples to the module of
// their leaf frame, with `go tool pprof -top`, and returns each
// module's share of all samples as host.<module>.
func profileShares(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-symbolize=none", "-unit=ns"}, paths...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := make(map[string]float64, len(hostModules))
	for _, m := range hostModules {
		shares["host."+m] = 0
	}
	var total float64
	sc := bufio.NewScanner(&stdout)
	started := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" {
			started = true
			continue
		}
		if !started || len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			continue
		}
		shares["host."+moduleOf(strings.Join(f[5:], " "))] += ns
		total += ns
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// hostModules are the rows of the host self-time breakdown.
var hostModules = []string{
	"sim", "packet", "crc", "fabric", "roce", "pcie", "hostmem", "tlb", "mr",
	"core", "kernels", "kvstore", "kvserve", "telemetry", "chaos", "bench",
	"runtime.gc", "runtime.malloc", "runtime.memclr", "runtime.sched", "runtime.map", "other",
}

// moduleOf maps a profiled function name to its host module row.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "strom/internal/"):
		mod := strings.TrimPrefix(fn, "strom/internal/")
		if i := strings.IndexAny(mod, "/."); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range hostModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "aeshash"),
		containsAny(fn, "runtime.map", "runtime.memhash"):
		return "runtime.map"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		switch {
		case strings.HasPrefix(name, "memclr"):
			return "runtime.memclr"
		case containsAny(name, "malloc", "nextFree", "refill", "newobject", "makeslice", "growslice",
			"mcache", "mcentral", "mheap", "newarray", "(*mspan).init", "heapSetType", "nextSample", "writeHeapBits"):
			return "runtime.malloc"
		case containsAny(name, "gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "greyobject",
			"findObject", "wbBuf", "Barrier", "spanOf", "heapBits", "typePointers", "pageIndexOf"):
			return "runtime.gc"
		case containsAny(name, "chan", "park", "gopark", "goready", "ready", "futex", "findRunnable",
			"schedule", "casgstatus", "lock2", "unlock2", "runq", "mcall", "gogo", "execute", "note",
			"sema", "wakep", "stealWork", "sudog", "nanotime", "procyield", "osyield", "usleep",
			"Timers", "spinning", "netpoll", "systemstack", "guintptr", "gosched", "goexit", "newproc"):
			return "runtime.sched"
		}
	}
	return "other"
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
