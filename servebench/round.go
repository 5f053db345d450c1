package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"strom/internal/sim"
)

// runOpts configures one round of a workload.
type runOpts struct {
	seed   int64
	traced bool             // observer tee and daemon probes
	hook   func(start bool) // called around the measured phase (nil: none)
	ops    int              // measured ops per round (0: workload default)
	keys   int              // KV key space (0: workload default)
	inject bool             // plant a correctness violation (tests only)
}

// outcome is one round's result.
type outcome struct {
	sim    simMetrics
	layers map[string]float64 // per-layer counters of the measured phase
	setup  time.Duration      // host time to build, connect and preload
	host   time.Duration      // host time of the measured phase
	events uint64             // simulator events fired in the measured phase
}

// simMetrics are the round's sim-clock end-to-end results; they are
// deterministic at a given seed and compared exactly across rounds.
type simMetrics struct {
	Attempted, Failed    int
	SimSeconds           float64
	PayloadBytes         uint64
	ReadN, WriteN        int // completed-op latency samples
	ReadMean, ReadP999   float64
	WriteMean, WriteP999 float64
}

// latencies collects one op class's sim-time latencies. Only completed
// ops have a latency; failed ops are counted, and reported through
// op_ok_share.
type latencies struct {
	ok     []sim.Duration
	failed int
}

func (l *latencies) add(d sim.Duration) { l.ok = append(l.ok, d) }
func (l *latencies) fail()              { l.failed++ }

// quantileUS returns the nearest-rank q-quantile of the sorted
// completed-op latencies in microseconds.
func (l *latencies) quantileUS(q float64) float64 {
	if len(l.ok) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(l.ok)))) - 1
	return l.ok[max(rank, 0)].Microseconds()
}

// meanUS returns the mean completed-op latency in microseconds.
func (l *latencies) meanUS() float64 {
	if len(l.ok) == 0 {
		return math.NaN()
	}
	var sum sim.Duration
	for _, d := range l.ok {
		sum += d
	}
	return sum.Microseconds() / float64(len(l.ok))
}

func (s *simMetrics) setLatencies(reads, writes *latencies) {
	for _, l := range []*latencies{reads, writes} {
		sort.Slice(l.ok, func(i, j int) bool { return l.ok[i] < l.ok[j] })
	}
	s.ReadN, s.WriteN = len(reads.ok), len(writes.ok)
	s.ReadMean, s.ReadP999 = reads.meanUS(), reads.quantileUS(0.999)
	s.WriteMean, s.WriteP999 = writes.meanUS(), writes.quantileUS(0.999)
}

// violationError fails a round on correctness violations, naming each.
func violationError(vio []string) error {
	const show = 20
	var b strings.Builder
	fmt.Fprintf(&b, "%d correctness violations", len(vio))
	for i, v := range vio {
		if i == show {
			fmt.Fprintf(&b, "\n  ... %d more", len(vio)-show)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v)
	}
	return fmt.Errorf("%s", b.String())
}
