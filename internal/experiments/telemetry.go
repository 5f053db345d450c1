package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// telemetryRPCOp is the rpcOp the scenario deploys the traversal kernel
// under on machine B.
const telemetryRPCOp = 0x01

// WriteTelemetry runs the canonical instrumented scenario — the workload
// cmd/strombench exports when -metrics/-trace are given — and writes the
// metrics registry and the Perfetto trace as JSON. The scenario runs on
// its own engine seeded from o.Seed, independent of the figure
// generators, so its output is byte-identical regardless of -j:
//
//  1. one-sided WRITE and READ on a clean 10 G link,
//  2. hash-table GETs through the traversal kernel on B (postRpc →
//     kernel FSM → DMA → RDMA write-back, the full §5 path),
//  3. the same WRITE/READ under 30% frame loss in both directions —
//     exercising retransmission, NAK and duplicate-READ-cache machinery,
//  4. a clean WRITE confirming recovery,
//
// with occupancy probes sampling both NICs and the link every 2 µs.
// Either writer may be nil to skip that export.
func WriteTelemetry(o Options, metricsW, traceW io.Writer) error {
	return WriteTelemetryExports(o, metricsW, traceW, nil)
}

// WriteTelemetryExports is WriteTelemetry plus the streaming JSONL
// export: when jsonlW is non-nil every health surface (both NIC ports,
// both link directions) and the whole metrics registry are scraped
// every 2 µs of simulated time, the default alert rules are evaluated
// at each scrape, and the event stream is written to jsonlW — one JSON
// object per line, byte-identical for any -j.
// The 4% loss phase deliberately trips the out-discards rate rule, so a
// consumer of this scenario's stream must expect out-discards (and on
// some seeds fcs-err) alerts; anything else is a scenario regression.
func WriteTelemetryExports(o Options, metricsW, traceW, jsonlW io.Writer) error {
	o = o.normalized()
	pair, err := newPair(o, profile10G(), 32<<20)
	if err != nil {
		return err
	}
	if err := pair.B.DeployKernel(telemetryRPCOp, traversal.New(0)); err != nil {
		return err
	}
	tel := pair.Instrument()
	var rec *export.Recorder
	if jsonlW != nil {
		rec = export.NewRecorder(export.DefaultRules())
		pair.RecordJSONL(rec, tel)
	}

	// B hosts a small key-value store; A keeps the write source, read
	// destination and GET response regions in its one registered buffer.
	region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
	ht, err := kvstore.BuildHashTable(region, 256)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	const valueSize = 96
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = rng.Uint64()
		value := make([]byte, valueSize)
		rng.Read(value)
		if err := ht.Put(keys[i], value); err != nil {
			return err
		}
	}

	const xfer = 64 << 10
	localA := uint64(pair.BufA.Base())
	respVA := pair.BufA.Base() + hostmem.Addr(xfer)
	remoteB := uint64(pair.BufB.Base()) + uint64(pair.BufB.Size()) - xfer
	payload := make([]byte, xfer)
	rng.Read(payload)
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), payload); err != nil {
		return err
	}

	var runErr error
	fail := func(stage string, err error) bool {
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("telemetry scenario: %s: %w", stage, err)
		}
		return err != nil
	}
	// setLoss flips both directions' impairment: A→B at once, B→A from
	// a zero-delay event that the client yields to before its next verb.
	setLoss := func(p *sim.Process, imp fabric.Impairment) {
		pair.Link.ImpairAtoB(imp)
		pair.Eng.Schedule(0, func() { pair.Link.ImpairBtoA(imp) })
		p.Sleep(0)
	}
	pair.Eng.Go("telemetry-client", func(p *sim.Process) {
		// Phase 1: clean one-sided verbs.
		if fail("write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)) {
			return
		}
		if fail("read", pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)) {
			return
		}
		// Phase 2: GETs through the traversal kernel.
		for _, key := range keys {
			_, err := traversal.Lookup(p, pair.A, testrig.QPA, telemetryRPCOp,
				ht.TraversalParams(key, valueSize, respVA))
			if fail("lookup", err) {
				return
			}
		}
		// Phase 3: the same verbs under loss. Dropped data packets drive
		// timeouts and retransmissions; dropped READ responses make A
		// repeat the request, hitting B's duplicate-READ cache. The drop
		// probability stays well inside the transport retry budget.
		setLoss(p, fabric.Impairment{DropProb: 0.04})
		if fail("lossy write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)) {
			return
		}
		if fail("lossy read", pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)) {
			return
		}
		setLoss(p, fabric.Impairment{})
		// Phase 4: recovery.
		fail("final write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer))
	})
	pair.StartProbes(tel, 2*sim.Microsecond)
	if rec != nil {
		rec.Start(2 * sim.Microsecond)
	}
	pair.Run()
	if runErr != nil {
		return runErr
	}
	if metricsW != nil {
		if err := tel.Registry.WriteJSON(metricsW); err != nil {
			return err
		}
	}
	if traceW != nil {
		if err := tel.Trace.WriteJSON(traceW); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := rec.WriteJSONL(jsonlW); err != nil {
			return err
		}
	}
	return nil
}
