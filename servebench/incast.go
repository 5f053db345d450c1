package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"strom/internal/core"
	"strom/internal/experiments"
	"strom/internal/hostmem"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// The incast-bulk workload: incastSenders machines each keep
// incastDepth 64 KiB RDMA WRITEs outstanding into one sink through the
// shared-buffer switch with DCQCN on, while a prober READs 64 B from a
// static region of the sink every incastProbeEvery.
const (
	incastSenders     = 4
	incastDepth       = 4
	incastMsg         = 64 << 10
	incastProbeBytes  = 64
	incastProbeEvery  = 20 * sim.Microsecond
	incastWrites      = 20_480 // measured WRITEs per round, over all senders
	incastStartJitter = 10 * sim.Microsecond
	incastBufBytes    = 2 << 20

	incastSink   = incastSenders
	incastProber = incastSenders + 1
)

// runIncastBulk makes one round of the incast workload.
func runIncastBulk(o runOpts) (*outcome, error) {
	writes := incastWrites
	if o.ops > 0 {
		writes = o.ops
	}
	slots := incastSenders * incastDepth
	perSlot := (writes + slots - 1) / slots
	writes = perSlot * slots

	// Inputs from the seed: each sender's message bytes and the sink's
	// probe region.
	rng := rand.New(rand.NewSource(o.seed))
	msgs := make([][]byte, incastSenders)
	for i := range msgs {
		msgs[i] = make([]byte, incastMsg)
		rng.Read(msgs[i])
	}
	probePattern := make([]byte, incastProbeBytes)
	rng.Read(probePattern)
	// Seeded start offsets: each WRITE slot starts within the first
	// incastStartJitter, the prober at a random phase of its period.
	offsets := make([]sim.Duration, incastSenders*incastDepth)
	for i := range offsets {
		offsets[i] = sim.Duration(rng.Int63n(int64(incastStartJitter)))
	}
	probePhase := sim.Duration(rng.Int63n(int64(incastProbeEvery)))

	out := &outcome{}
	runtime.GC()
	t0 := time.Now()
	net, err := testrig.NewNet(o.seed, incastSenders+2, core.Profile10G(), experiments.IncastSwitchConfig(), incastBufBytes)
	if err != nil {
		return nil, err
	}
	net.EnableDCQCN(roce.DefaultDCQCN())
	obs := attachObservers(net, o.traced)
	sink := net.Machines[incastSink]
	// Sink layout: one 64 KiB region per (sender, slot), then the probe
	// region no WRITE ever touches.
	regionVA := func(sender, slot int) hostmem.Addr {
		return sink.Buf.Base() + hostmem.Addr((sender*incastDepth+slot)*incastMsg)
	}
	probeVA := sink.Buf.Base() + hostmem.Addr(slots*incastMsg)
	if err := sink.NIC.Memory().WriteVirt(probeVA, probePattern); err != nil {
		return nil, err
	}
	qps := make([]uint32, incastSenders)
	for i := 0; i < incastSenders; i++ {
		m := net.Machines[i]
		if err := m.NIC.Memory().WriteVirt(m.Buf.Base(), msgs[i]); err != nil {
			return nil, err
		}
		if qps[i], _, err = net.Connect(i, incastSink); err != nil {
			return nil, err
		}
	}
	probeQP, _, err := net.Connect(incastProber, incastSink)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)

	var (
		reads, writeLat latencies
		vio             []string
		done            int
		lastDone        sim.Time
		payload         uint64
		probes          int
		eng             = net.SwEng
		start           = eng.Now()
		layersAtStart   = netCounters(net)
		firedAtStart    = eng.Fired()
	)
	for i := 0; i < incastSenders; i++ {
		m := net.Machines[i]
		for s := 0; s < incastDepth; s++ {
			dst := uint64(regionVA(i, s))
			offset := offsets[i*incastDepth+s]
			m.Eng.Go(fmt.Sprintf("sender-%d-%d", i, s), func(p *sim.Process) {
				p.Sleep(offset)
				for w := 0; w < perSlot; w++ {
					t := p.Now()
					if err := m.NIC.WriteSync(p, qps[i], uint64(m.Buf.Base()), dst, incastMsg); err != nil {
						writeLat.fail()
						continue
					}
					writeLat.add(p.Now().Sub(t))
					payload += incastMsg
				}
				done++
				lastDone = p.Now()
			})
		}
	}
	// The prober is a closed loop too: one READ outstanding, the next
	// issued at the first period boundary after the previous returned.
	prober := net.Machines[incastProber]
	prober.Eng.Go("prober", func(p *sim.Process) {
		local := uint64(prober.Buf.Base())
		p.Sleep(probePhase)
		for done < slots {
			t := p.Now()
			probes++
			if err := prober.NIC.ReadSync(p, probeQP, uint64(probeVA), local, incastProbeBytes); err != nil {
				reads.fail()
			} else {
				reads.add(p.Now().Sub(t))
				payload += incastProbeBytes
				got, rerr := prober.NIC.Memory().ReadVirt(hostmem.Addr(local), incastProbeBytes)
				at, serr := sink.NIC.Memory().ReadVirt(probeVA, incastProbeBytes)
				if rerr != nil || serr != nil || !bytes.Equal(got, at) || !bytes.Equal(got, probePattern) {
					vio = append(vio, fmt.Sprintf("probe READ at %v returned bytes not matching the sink's memory", t))
				}
			}
			next := t.Add(incastProbeEvery)
			for next <= p.Now() {
				next = next.Add(incastProbeEvery)
			}
			p.Sleep(next.Sub(p.Now()))
		}
	})

	var probe *simProbe
	out.host, probe = measure(net, obs, o)
	out.events = eng.Fired() - firedAtStart
	layers := diffCounters(layersAtStart, netCounters(net))

	// Correctness gate: every flow completed, every region holds its
	// sender's message, the checkers saw a clean transport.
	if done < slots {
		vio = append(vio, fmt.Sprintf("stalled flow: %d of %d WRITE slots never finished", slots-done, slots))
	}
	if o.inject {
		corrupt := []byte{^msgs[0][0]}
		_ = sink.NIC.Memory().WriteVirt(regionVA(0, 0), corrupt)
	}
	for i := 0; i < incastSenders; i++ {
		for s := 0; s < incastDepth; s++ {
			got, err := sink.NIC.Memory().ReadVirt(regionVA(i, s), incastMsg)
			if err != nil || !bytes.Equal(got, msgs[i]) {
				vio = append(vio, fmt.Sprintf("sink region of sender %d slot %d does not hold the sender's message", i, s))
			}
		}
	}
	vio = append(vio, obs.finish()...)
	if len(vio) > 0 {
		return nil, violationError(vio)
	}

	simDur := lastDone.Sub(start)
	out.sim = simMetrics{
		Attempted:    writes + probes,
		Failed:       writeLat.failed + reads.failed,
		SimSeconds:   simDur.Seconds(),
		PayloadBytes: payload,
	}
	out.sim.setLatencies(&reads, &writeLat)
	// The KV client, its kernels and chaos injection are not on this
	// workload's path.
	for _, lm := range layerMetrics {
		if strings.HasPrefix(lm.Name, "kvserve.") || strings.HasPrefix(lm.Name, "kernels.") {
			layers[lm.Name] = 0
		}
	}
	layers["chaos.faults_injected"] = 0
	layers["fabric.chaos_drops"] = 0
	finishLayers(layers, simDur, payload, len(net.Machines))
	obs.addTraced(layers, probe)
	out.layers = layers
	return out, nil
}
