package core

import (
	"fmt"
	"sort"
	"strconv"

	"strom/internal/mr"
	"strom/internal/telemetry"
)

// Trace track (tid) layout inside a NIC's process (pid): tids 1-4 are the
// RoCE stack's pipelines and log lane, 5 the NIC's own log lane, 8-9 the
// DMA engine's streams, 16+qpn one lane per queue pair (host-visible
// operations), 64+i one lane per deployed kernel in rpcOp order.
const (
	traceTidNicLog     = 5
	traceTidQPBase     = 16
	traceTidKernelBase = 64
)

// nicTelemetry is the NIC's handle onto the observability layer; nil
// when telemetry is disabled, so hot paths pay one pointer compare.
// Metric handles the hot paths touch are resolved once — at attach time
// for the fixed set, on first use for per-(qp,op) keys — and held here,
// so steady-state instrumentation never formats label strings or walks
// the registry's lookup map (both allocate).
type nicTelemetry struct {
	reg    *telemetry.Registry
	tb     *telemetry.TraceBuffer
	pid    uint32
	name   string
	seenQP map[uint32]bool

	opHist map[opKey]*telemetry.Histogram // op_latency_ps, per (qp, op)
	opErrs map[string]*telemetry.Counter  // op_errors, per op
	qpSamp map[uint32]*qpSampleHandles    // TelemetrySample per-QP handles

	// TelemetrySample fixed handles, resolved at attach time.
	kernSamp []kernelSampleHandles // in deterministic rpcOp order
	dbHist   *telemetry.Histogram  // doorbell_backlog_ps
}

// opKey identifies one (queue pair, verb) latency series.
type opKey struct {
	qpn uint32
	op  string
}

// qpSampleHandles holds one QP's occupancy-sample instruments.
type qpSampleHandles struct {
	outstandingReads *telemetry.Histogram
	unackedPackets   *telemetry.Histogram
}

// kernelSampleHandles holds one deployed kernel's occupancy instruments
// plus the deployment they sample.
type kernelSampleHandles struct {
	d        *deployment
	inflight *telemetry.Gauge
	samples  *telemetry.Histogram
}

// AttachTelemetry wires the NIC and all its components (RoCE stack, DMA
// engine, kernels) into the observability layer under pid. The registry
// mirrors every status-register counter via collect callbacks; the trace
// buffer gets per-QP operation spans, per-kernel FSM lanes, and the
// stack/DMA tracks. Either argument may be nil. Call after deploying
// kernels so every deployment gets its trace lane.
func (n *NIC) AttachTelemetry(reg *telemetry.Registry, tb *telemetry.TraceBuffer, pid uint32, name string) {
	n.tel = &nicTelemetry{
		reg: reg, tb: tb, pid: pid, name: name,
		seenQP: make(map[uint32]bool),
		opHist: make(map[opKey]*telemetry.Histogram),
		opErrs: make(map[string]*telemetry.Counter),
		qpSamp: make(map[uint32]*qpSampleHandles),
	}
	tb.NameProcess(pid, "nic:"+name)
	tb.NameThread(pid, traceTidNicLog, "nic:log")
	n.stack.AttachTelemetry(reg, tb, pid)
	n.dma.AttachTelemetry(reg, tb, pid, name)
	nic := telemetry.L("nic", name)
	if reg != nil {
		reg.OnCollect(func() {
			reg.Counter("nic_doorbells", nic).Set(n.stats.Doorbells)
			reg.Counter("nic_rpcs_dispatched", nic).Set(n.stats.RPCsDispatched)
			reg.Counter("nic_rpcs_fallback", nic).Set(n.stats.RPCsFallback)
			reg.Counter("nic_rpcs_unmatched", nic).Set(n.stats.RPCsUnmatched)
			reg.Counter("nic_stream_segments", nic).Set(n.stats.StreamSegments)
			reg.Counter("nic_kernel_dma_reads", nic).Set(n.stats.KernelDMAReads)
			reg.Counter("nic_kernel_dma_writes", nic).Set(n.stats.KernelDMAWrites)
			reg.Counter("nic_kernel_rdma_writes", nic).Set(n.stats.KernelRDMAWrites)
			reg.Counter("nic_tlb_lookups", nic).Set(n.tlb.Lookups)
			reg.Counter("nic_tlb_splits", nic).Set(n.tlb.Splits)
			reg.Counter("nic_tlb_misses", nic).Set(n.tlb.Misses)
			reg.Counter("kernel_mr_fault", nic).Set(n.stats.KernelMRFaults)
			// Every violation class exports every collection so the label
			// set (and the telemetry diff baseline) is stable.
			for c := mr.Class(0); c < mr.NumClasses; c++ {
				reg.Counter("mr_validation_fail", nic, telemetry.L("class", c.String())).Set(n.mrt.FailCount(c))
			}
		})
	}
	// One trace lane and occupancy instrumentation per deployed kernel,
	// assigned in rpcOp order so lane numbering is deterministic. The
	// sampling handles are resolved here, once, so TelemetrySample never
	// sorts or formats labels on the probe path.
	ops := make([]uint64, 0, len(n.kernels))
	for op := range n.kernels {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for i, op := range ops {
		d := n.kernels[op]
		d.ctx.tid = uint32(traceTidKernelBase + i)
		tb.NameThread(pid, d.ctx.tid, "kernel:"+d.kernel.Name())
		if reg != nil {
			lbl := telemetry.L("kernel", d.kernel.Name())
			n.tel.kernSamp = append(n.tel.kernSamp, kernelSampleHandles{
				d:        d,
				inflight: reg.Gauge("kernel_inflight_dma", nic, lbl),
				samples:  reg.Histogram("kernel_inflight_dma_samples", "commands", nic, lbl),
			})
		}
	}
	if reg != nil {
		n.tel.dbHist = reg.Histogram("doorbell_backlog_ps", "ps", nic)
	}
}

// logf records a diagnostic on the NIC's log lane (structured tracing).
// name is the instant's short event name; format/args carry the full
// message.
func (n *NIC) logf(name, format string, args ...any) {
	if t := n.tel; t != nil && t.tb != nil {
		t.tb.Instant(t.pid, traceTidNicLog, "log", name, fmt.Sprintf(format, args...))
	}
}

// qpTid returns the trace lane for a queue pair, naming it on first use.
func (t *nicTelemetry) qpTid(qpn uint32) uint32 {
	tid := traceTidQPBase + qpn
	if t.tb != nil && !t.seenQP[qpn] {
		t.seenQP[qpn] = true
		t.tb.NameThread(t.pid, tid, fmt.Sprintf("qp%d", qpn))
	}
	return tid
}

// opLatency returns the latency histogram for a (qp, op) pair,
// resolving it through the registry (label formatting and all) only the
// first time the pair is seen; every later post is a map hit.
func (t *nicTelemetry) opLatency(qpn uint32, op string) *telemetry.Histogram {
	k := opKey{qpn: qpn, op: op}
	if h, ok := t.opHist[k]; ok {
		return h
	}
	h := t.reg.Histogram("op_latency_ps", "ps",
		telemetry.L("nic", t.name), telemetry.L("qp", strconv.FormatUint(uint64(qpn), 10)), telemetry.L("op", op))
	t.opHist[k] = h
	return h
}

// opErrors returns the error counter for a verb, resolved on first use.
func (t *nicTelemetry) opErrors(op string) *telemetry.Counter {
	if c, ok := t.opErrs[op]; ok {
		return c
	}
	c := t.reg.Counter("op_errors", telemetry.L("nic", t.name), telemetry.L("op", op))
	t.opErrs[op] = c
	return c
}

// instrumentOp wraps a host-posted operation's completion callback to
// record a per-QP span (doorbell through remote acknowledgement) and a
// per-QP latency histogram observation. Returns done unchanged when
// telemetry is disabled.
func (n *NIC) instrumentOp(op string, qpn uint32, done func(error)) func(error) {
	t := n.tel
	if t == nil {
		return done
	}
	start := n.eng.Now()
	tid := t.qpTid(qpn)
	hist := t.opLatency(qpn, op)
	return func(err error) {
		d := n.eng.Now().Sub(start)
		arg := ""
		if err != nil {
			arg = err.Error()
			t.opErrors(op).Inc()
		}
		t.tb.Complete(t.pid, tid, "op", op, start, d, arg)
		hist.Observe(d)
		if done != nil {
			done(err)
		}
	}
}

// Health returns the NIC's scrapeable per-port health report, using the
// switch-style error-counter names documented in
// internal/telemetry/export (fcs_err for undecodable frames,
// in_discards for frames arriving while crashed, stomped_crc for
// duplicate READs whose payload identity could not be re-proven, ...).
// It is a valid export.ScrapeFunc and works with or without
// AttachTelemetry.
func (n *NIC) Health() (map[string]uint64, map[string]float64) {
	st := n.stack.Stats()
	var mrTotal uint64
	counters := map[string]uint64{
		"in_frames":          st.RxPackets,
		"in_bytes":           st.RxBytes,
		"out_frames":         st.TxPackets,
		"out_bytes":          st.TxBytes,
		"fcs_err":            st.RxDiscarded,
		"in_discards":        n.stats.FramesDroppedDown,
		"stomped_crc":        st.DupReadCacheMiss,
		"rcv_dup":            st.RxDuplicates,
		"rcv_ooo":            st.RxOutOfOrder,
		"acks_tx":            st.AcksSent,
		"acks_rx":            st.AcksReceived,
		"naks_tx":            st.NaksSent,
		"naks_rx":            st.NaksReceived,
		"retransmissions":    st.Retransmissions,
		"timeouts":           st.Timeouts,
		"deadline_expired":   st.DeadlineExpired,
		"remote_access_naks": st.NaksRemoteAccess,
		"qp_errors":          st.QPErrors,
		"qp_resets":          st.QPResets,
		"kernel_faults":      n.stats.KernelMRFaults,
		"kernel_aborts":      n.stats.KernelAborts,
		"dma_stalled":        n.dma.Stats().StalledCmds,
		"ops_posted":         st.OpsPosted,
		"ops_completed":      st.OpsCompleted,
		"ecn_marked_rx":      st.EcnMarkedRx,
		"cnps_tx":            st.CnpsSent,
		"cnps_rx":            st.CnpsReceived,
		"paced_frames":       st.PacedFrames,
	}
	for c := mr.Class(0); c < mr.NumClasses; c++ {
		v := n.mrt.FailCount(c)
		mrTotal += v
		counters["mr_violation_"+c.String()] = v
	}
	counters["mr_violations"] = mrTotal
	gauges := map[string]float64{
		"outstanding_ops": float64(st.OpsPosted - st.OpsCompleted),
	}
	n.stack.EachActiveQP(func(qpn uint32) {
		qp := "qp" + strconv.FormatUint(uint64(qpn), 10)
		if state, err := n.stack.QPStateOf(qpn); err == nil {
			gauges[qp+"_state"] = float64(state)
		}
		// Per-QP retransmission counters feed the retry-storm rate rule;
		// the counter lives outside qpState so QP resets never rewind it.
		counters[qp+"_retransmissions"] = n.stack.QPRetransmissions(qpn)
	})
	return counters, gauges
}

// TelemetrySample records the NIC's instantaneous occupancy into the
// registry — kernel in-flight DMA commands, per-QP outstanding reads and
// unacknowledged packets, doorbell backlog. Called from sampling probes;
// a no-op when telemetry is disabled.
func (n *NIC) TelemetrySample() {
	t := n.tel
	if t == nil || t.reg == nil {
		return
	}
	for _, k := range t.kernSamp {
		k.inflight.Set(float64(k.d.ctx.inflight))
		k.samples.ObserveInt(int64(k.d.ctx.inflight))
	}
	n.stack.EachActiveQP(func(qpn uint32) {
		h, ok := t.qpSamp[qpn]
		if !ok {
			nic := telemetry.L("nic", t.name)
			qp := telemetry.L("qp", strconv.FormatUint(uint64(qpn), 10))
			h = &qpSampleHandles{
				outstandingReads: t.reg.Histogram("qp_outstanding_reads", "reads", nic, qp),
				unackedPackets:   t.reg.Histogram("qp_unacked_packets", "packets", nic, qp),
			}
			t.qpSamp[qpn] = h
		}
		h.outstandingReads.ObserveInt(int64(n.stack.OutstandingReads(qpn)))
		h.unackedPackets.ObserveInt(int64(n.stack.PendingPackets(qpn)))
	})
	backlog := n.doorbell.NextFree().Sub(n.eng.Now())
	if backlog < 0 {
		backlog = 0
	}
	t.dbHist.Observe(backlog)
}
