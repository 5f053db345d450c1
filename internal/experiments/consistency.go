package experiments

import (
	"fmt"
	"math/rand"

	"strom/internal/cpu"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

const consistencyOp = 0x03

// fig9Sizes is Fig. 9's x axis.
var fig9Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig9Consistency reproduces Fig. 9: median latency of reading a remote
// object without a consistency check ("READ"), with a CRC64 check on the
// local CPU ("READ+SW"), and with the check offloaded to the consistency
// kernel on the remote NIC ("StRoM").
func Fig9Consistency(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig 9: consistent remote object read", "object size", "latency us (median [p1,p99])")
	sRead := fig.NewSeries("READ")
	sSW := fig.NewSeries("READ+SW")
	sStrom := fig.NewSeries("StRoM")
	for _, size := range fig9Sizes {
		read, sw, strom, err := consistencyLatencies(o, size)
		if err != nil {
			return nil, err
		}
		for _, row := range []struct {
			s    *stats.Series
			smpl *stats.Sample
		}{{sRead, read}, {sSW, sw}, {sStrom, strom}} {
			sum := row.smpl.Summarize()
			row.s.AddBands(float64(size), sizeLabel(size), sum.Median, sum.P1, sum.P99)
		}
	}
	return fig, nil
}

// consistencyBed prepares a CRC64-stamped object in B's memory.
func consistencyBed(o Options, size int) (*testrig.Pair, hostmem.Addr, []byte, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return nil, 0, nil, err
	}
	obj := make([]byte, size)
	rand.New(rand.NewSource(o.Seed + int64(size))).Read(obj)
	cpu.StampCRC64(obj)
	objVA := pair.BufB.Base() + 2<<20
	if err := pair.B.Memory().WriteVirt(objVA, obj); err != nil {
		return nil, 0, nil, err
	}
	return pair, objVA, obj, nil
}

func consistencyLatencies(o Options, size int) (read, sw, strom *stats.Sample, err error) {
	pair, objVA, _, err := consistencyBed(o, size)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := pair.B.DeployKernel(consistencyOp, consistency.New(0)); err != nil {
		return nil, nil, nil, err
	}
	read, sw, strom = &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
	var runErr error
	pair.Eng.Go("client", func(p *sim.Process) {
		host := pair.A.Host()
		for i := 0; i < o.Iterations; i++ {
			// Plain READ.
			start := p.Now()
			if err := pair.A.ReadSync(p, testrig.QPA, uint64(objVA), uint64(pair.BufA.Base()), size); err != nil {
				runErr = err
				return
			}
			read.Add(p.Now().Sub(start).Microseconds())

			// READ + software CRC64 on the requester CPU.
			start = p.Now()
			if err := pair.A.ReadSync(p, testrig.QPA, uint64(objVA), uint64(pair.BufA.Base()), size); err != nil {
				runErr = err
				return
			}
			data, err := pair.A.Memory().ReadVirt(pair.BufA.Base(), size)
			if err != nil {
				runErr = err
				return
			}
			if !host.CheckCRC64(p, data) {
				runErr = fmt.Errorf("software check failed on a consistent object")
				return
			}
			sw.Add(p.Now().Sub(start).Microseconds())

			// StRoM consistency kernel.
			start = p.Now()
			if _, err := consistency.Read(p, pair.A, testrig.QPA, consistencyOp, consistency.Params{
				ObjectAddress: uint64(objVA), ObjectSize: uint32(size), ResponseAddress: uint64(pair.BufA.Base()),
			}); err != nil {
				runErr = err
				return
			}
			strom.Add(p.Now().Sub(start).Microseconds())
		}
	})
	pair.Run()
	if runErr != nil {
		return nil, nil, nil, runErr
	}
	return read, sw, strom, nil
}

// fig10Rates is Fig. 10's x axis (failure probabilities).
var fig10Rates = []float64{0, 0.005, 0.05, 0.5}

// fig10Sizes are the three object sizes plotted in Fig. 10.
var fig10Sizes = []int{64, 512, 4096}

// Fig10FailureRate reproduces Fig. 10: average latency of a consistent
// read when the first check fails with the given probability (the retry
// always succeeds), comparing READ+SW against StRoM for three sizes.
func Fig10FailureRate(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig 10: consistency-check failure rates", "failure rate", "avg latency us")
	for _, size := range fig10Sizes {
		sw := fig.NewSeries(fmt.Sprintf("READ+SW: %s", sizeLabel(size)))
		st := fig.NewSeries(fmt.Sprintf("StRoM: %s", sizeLabel(size)))
		for _, rate := range fig10Rates {
			swAvg, stAvg, err := failureRateLatencies(o, size, rate)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%g", rate)
			sw.Add(rate, label, swAvg)
			st.Add(rate, label, stAvg)
		}
	}
	return fig, nil
}

func failureRateLatencies(o Options, size int, rate float64) (swAvg, stromAvg float64, err error) {
	// The client process plays the "concurrent writer" by rewriting the
	// object in B's memory between its own A-side reads.
	pair, objVA, good, err := consistencyBed(o, size)
	if err != nil {
		return 0, 0, err
	}
	if err := pair.B.DeployKernel(consistencyOp, consistency.New(0)); err != nil {
		return 0, 0, err
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	rng := rand.New(rand.NewSource(o.Seed*7919 + int64(size) + int64(rate*1000)))
	var sw, strom stats.Sample
	var runErr error
	iters := o.Iterations * 2 // averages need a larger population
	pair.Eng.Go("client", func(p *sim.Process) {
		host := pair.A.Host()
		for i := 0; i < iters; i++ {
			failSW := rng.Float64() < rate
			failStrom := rng.Float64() < rate

			// READ+SW: the first read observes a torn object; the client
			// detects it and re-reads over the network (one extra RTT).
			if err := pair.B.Memory().WriteVirt(objVA, choose(failSW, bad, good)); err != nil {
				runErr = err
				return
			}
			start := p.Now()
			for attempt := 0; ; attempt++ {
				if err := pair.A.ReadSync(p, testrig.QPA, uint64(objVA), uint64(pair.BufA.Base()), size); err != nil {
					runErr = err
					return
				}
				data, err := pair.A.Memory().ReadVirt(pair.BufA.Base(), size)
				if err != nil {
					runErr = err
					return
				}
				if host.CheckCRC64(p, data) {
					break
				}
				// The concurrent writer finished: the next read succeeds.
				if err := pair.B.Memory().WriteVirt(objVA, good); err != nil {
					runErr = err
					return
				}
			}
			sw.Add(p.Now().Sub(start).Microseconds())

			// StRoM: the retry happens on the remote NIC over PCIe. The
			// writer finishes the update shortly after the kernel's first
			// read lands, so the re-read always succeeds.
			if err := pair.B.Memory().WriteVirt(objVA, choose(failStrom, bad, good)); err != nil {
				runErr = err
				return
			}
			if failStrom {
				fix := 4500*sim.Nanosecond + sim.BytesAt(size, pair.A.Config().PCIe.BandwidthGbps)
				pair.Eng.Schedule(fix, func() {
					if err := pair.B.Memory().WriteVirt(objVA, good); err != nil && runErr == nil {
						runErr = err
					}
				})
			}
			start = p.Now()
			if _, err := consistency.Read(p, pair.A, testrig.QPA, consistencyOp, consistency.Params{
				ObjectAddress: uint64(objVA), ObjectSize: uint32(size), ResponseAddress: uint64(pair.BufA.Base()),
			}); err != nil {
				runErr = err
				return
			}
			strom.Add(p.Now().Sub(start).Microseconds())
		}
	})
	pair.Run()
	if runErr != nil {
		return 0, 0, runErr
	}
	return sw.Mean(), strom.Mean(), nil
}

func choose(cond bool, a, b []byte) []byte {
	if cond {
		return a
	}
	return b
}
