package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// short sizes each workload's round for the tests.
var short = map[string]runOpts{
	"kv-inline":      {ops: 3000, keys: 1024},
	"kv-large-lossy": {ops: 2000, keys: 1024},
	"incast-bulk":    {ops: 256},
}

func shortRound(t *testing.T, name string, seed int64, traced bool) *outcome {
	t.Helper()
	o := short[name]
	o.seed, o.traced = seed, traced
	out, err := workloads[name](o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return out
}

// TestRoundsDeterministic: two rounds at one seed give identical
// sim-clock metrics and identical layer counters; a traced round
// reproduces them too; another seed changes them.
func TestRoundsDeterministic(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := shortRound(t, name, 1, false)
			b := shortRound(t, name, 1, false)
			if a.sim != b.sim {
				t.Errorf("sim metrics differ at one seed:\n%+v\n%+v", a.sim, b.sim)
			}
			if !reflect.DeepEqual(a.layers, b.layers) {
				t.Errorf("layer counters differ at one seed:\n%v\n%v", a.layers, b.layers)
			}
			tr := shortRound(t, name, 1, true)
			if err := sameSim([]*outcome{a}, tr); err != nil {
				t.Errorf("traced round: %v", err)
			}
			for _, k := range []string{"roce.verb_p50_us", "roce.verb_p999_us", "sim.pending_max", "fabric.switch.buffer_bytes_max"} {
				if _, ok := tr.layers[k]; !ok {
					t.Errorf("traced round lacks %s", k)
				}
			}
			c := shortRound(t, name, 2, false)
			if a.sim == c.sim && reflect.DeepEqual(a.layers, c.layers) {
				t.Errorf("seeds 1 and 2 gave identical results: %+v", a.sim)
			}
		})
	}
}

// TestInjectedViolationFails: a planted violation fails the round and is
// named in the error.
func TestInjectedViolationFails(t *testing.T) {
	want := map[string]string{
		"kv-inline":      "audit: key",
		"kv-large-lossy": "audit: key",
		"incast-bulk":    "does not hold the sender's message",
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := short[name]
			o.seed, o.inject = 1, true
			_, err := workloads[name](o)
			if err == nil {
				t.Fatal("round with a planted violation passed")
			}
			if !strings.Contains(err.Error(), "correctness violations") || !strings.Contains(err.Error(), want[name]) {
				t.Fatalf("error does not name the violation: %v", err)
			}
		})
	}
}

// TestKnownDefectConcurrentReadsUnderLoss documents why kv-large-lossy
// runs a single session: with four sessions under 1 % bursty loss the
// client's per-QP read credits leak until Gets fail with
// roce.ErrTooManyReads. When this test fails the defect is fixed: delete
// it and give kvLargeSpec the four sessions the workload was meant to
// run.
func TestKnownDefectConcurrentReadsUnderLoss(t *testing.T) {
	spec := kvLargeSpec
	spec.sessions = 4
	out, err := runKV(runOpts{seed: 1, ops: 6000, keys: 1024}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.layers["kvserve.fail.read_depth"] == 0 {
		t.Fatalf("no Get failed with ErrTooManyReads: the read-credit leak is gone (%+v)", out.sim)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: same workloads, same end-to-end and per-layer names, units and
// directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, got, m)
		}
	}
}

// TestModuleOf checks the profile's leaf-frame attribution.
func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"strom/internal/sim.(*Engine).siftDown":               "sim",
		"strom/internal/telemetry/export.(*scraper).tick":     "telemetry",
		"strom/internal/kernels/consistency.(*Kernel).Invoke": "kernels",
		"strom/internal/workload.(*Zipfian).Next":             "other",
		"main.runKV.func2":                        "bench",
		"runtime.memclrNoHeapPointers":            "runtime.memclr",
		"runtime.mallocgcSmallScanNoHeader":       "runtime.malloc",
		"runtime.scanobject":                      "runtime.gc",
		"runtime.chanrecv":                        "runtime.sched",
		"internal/runtime/maps.ctrlGroup.matchH2": "runtime.map",
		"encoding/binary.bigEndian.Uint16":        "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
