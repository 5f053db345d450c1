// Command servebench is the serving benchmark of the StRoM simulator.
// It drives one named workload against the simulated switched testbed
// through the program's public package APIs and reports two clocks:
// simulated performance (deterministic at a given seed) and what the
// simulator costs to run on this host.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload kv-inline --seed 1 --seconds 10 --trace 0
//
// A run repeats one fixed-size round (set up the testbed, run the
// measured closed loop, check correctness) until --seconds of host time
// have passed, at least minRounds times. Every round at one seed is the
// same simulation, so the sim-clock metrics of all rounds must agree
// exactly; host metrics are medians over the rounds. With --trace 1
// the rounds alternate untraced and traced (observer tee, daemon
// probes, CPU profile) and the per-layer metrics are printed instead.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness violation
// prints its name to standard error and makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// minRounds is the least number of rounds a run makes, so that setup
// and host throughput are medians of several samples.
const minRounds = 3

// workloads maps each workload name to its round function.
var workloads = map[string]func(runOpts) (*outcome, error){
	"kv-inline":      runKVInline,
	"kv-large-lossy": runKVLargeLossy,
	"incast-bulk":    runIncastBulk,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "kv-inline", "workload: kv-inline, kv-large-lossy or incast-bulk")
	seed := fs.Int64("seed", 1, "seed for keys, op mix, sizes and the simulation")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating rounds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	fmt.Println(envLine(*name, *seed, *trace == 1))
	if *trace == 1 {
		return runTraced(*name, wl, *seed, *seconds)
	}
	return runPlain(wl, *seed, *seconds)
}

// envLine records where and how the result was measured.
func envLine(name string, seed int64, traced bool) string {
	b, _ := json.Marshal(map[string]any{ // strings, numbers and bools always marshal
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	})
	return string(b)
}

// runPlain makes untraced rounds and prints the end-to-end metrics.
func runPlain(wl func(runOpts) (*outcome, error), seed int64, seconds float64) error {
	var rounds []*outcome
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		out, err := wl(runOpts{seed: seed})
		if err != nil {
			return err
		}
		if err := sameSim(rounds, out); err != nil {
			return err
		}
		rounds = append(rounds, out)
	}
	first := rounds[0]
	setup := make([]float64, len(rounds))
	rate := make([]float64, len(rounds))
	for i, r := range rounds {
		setup[i] = r.setup.Seconds()
		rate[i] = float64(first.sim.Attempted) / r.host.Seconds()
		fmt.Printf("round %d: setup %.4f s, measured %.4f s, %.0f ops/s\n", i, setup[i], r.host.Seconds(), rate[i])
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	s := first.sim
	fmt.Printf("rounds=%d ops/round=%d read_samples=%d (%d beyond p999) write_samples=%d (%d beyond p999)\n",
		len(rounds), s.Attempted, s.ReadN, beyond999(s.ReadN), s.WriteN, beyond999(s.WriteN))
	metrics := map[string]metric{
		"setup_s":        {median(setup), "s"},
		"host_ops_per_s": {median(rate), "1/s"},
		"mem_peak_mb":    {rss, "MB"},
		"sim_ops_per_s":  {float64(s.Attempted) / s.SimSeconds, "1/s"},
		"goodput_gbps":   {float64(s.PayloadBytes) * 8 / s.SimSeconds / 1e9, "Gbps"},
		"read_mean_us":   {s.ReadMean, "us"},
		"read_p999_us":   {s.ReadP999, "us"},
		"write_mean_us":  {s.WriteMean, "us"},
		"write_p999_us":  {s.WriteP999, "us"},
		"op_ok_share":    {1 - float64(s.Failed)/float64(s.Attempted), "share"},
	}
	return printResult(s.Attempted, s.Failed, metrics)
}

// runTraced alternates untraced and traced rounds, profiles the traced
// ones, checks that tracing did not perturb the simulation, and prints
// the per-layer metrics.
func runTraced(name string, wl func(runOpts) (*outcome, error), seed int64, seconds float64) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir(), "servebench-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var (
		plain, traced []*outcome
		mem           memDelta
		profiles      []string
		prof          *os.File
		profErr       error
	)
	// profile samples the measured phase of a traced round into a file
	// of its own; set-up and checking stay out of the profile.
	profile := func(start bool) {
		if !start {
			if prof != nil {
				pprof.StopCPUProfile()
				if err := prof.Close(); err != nil && profErr == nil {
					profErr = fmt.Errorf("cpu profile: %w", err)
				}
				prof = nil
			}
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", len(profiles)))
		f, err := os.Create(path)
		if err != nil {
			profErr = fmt.Errorf("cpu profile: %w", err)
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			profErr = fmt.Errorf("cpu profile: %w", err)
			return
		}
		prof = f
		profiles = append(profiles, path)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(traced) < 1 || time.Now().Before(deadline) {
		out, err := wl(runOpts{seed: seed, hook: mem.hook})
		if err != nil {
			return err
		}
		if err := sameSim(plain, out); err != nil {
			return err
		}
		plain = append(plain, out)

		out, err = wl(runOpts{seed: seed, traced: true, hook: profile})
		if err != nil {
			return err
		}
		if profErr != nil {
			return profErr
		}
		if err := sameSim(plain, out); err != nil {
			return fmt.Errorf("tracing perturbed the simulation: %w", err)
		}
		traced = append(traced, out)
	}

	layers := make(map[string]float64)
	for k, v := range traced[0].layers {
		layers[k] = v
	}
	ops := float64(plain[0].sim.Attempted)
	events := float64(plain[0].events)
	var plainNS, tracedNS float64
	for _, r := range plain {
		plainNS += float64(r.host.Nanoseconds())
	}
	for _, r := range traced {
		tracedNS += float64(r.host.Nanoseconds())
	}
	layers["sim.events"] = events
	layers["sim.events_per_op"] = events / ops
	layers["sim.host_ns_per_event"] = plainNS / float64(len(plain)) / events
	layers["trace_overhead_share"] = (tracedNS/float64(len(traced)))/(plainNS/float64(len(plain))) - 1
	n := float64(mem.rounds)
	layers["go.allocs_per_op"] = float64(mem.mallocs) / n / ops
	layers["go.alloc_bytes_per_op"] = float64(mem.bytes) / n / ops
	layers["go.gc_cycles"] = float64(mem.gcs) / n
	layers["go.gc_pause_ms"] = float64(mem.pauseNS) / n / 1e6

	shares, err := profileShares(profiles)
	if err != nil {
		return err
	}
	for k, v := range shares {
		layers[k] = v
	}

	metrics := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := layers[lm.Name]
		if !ok {
			return fmt.Errorf("layer metric %s was not measured", lm.Name)
		}
		metrics[lm.Name] = metric{v, lm.Unit}
	}
	targets := make(map[string]string, len(layerMetrics))
	for _, lm := range layerMetrics {
		targets[lm.Name] = lm.Moves
	}
	b, err := json.Marshal(map[string]any{"layer_targets": targets})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	fmt.Printf("untraced_rounds=%d traced_rounds=%d sim_identical=true\n", len(plain), len(traced))
	s := plain[0].sim
	return printResult(s.Attempted, s.Failed, metrics)
}

// memDelta accumulates Go runtime allocation counters over the
// measured phases of the rounds it hooks.
type memDelta struct {
	rounds                       int
	mallocs, bytes, gcs, pauseNS uint64
	start                        runtime.MemStats
}

func (m *memDelta) hook(start bool) {
	if start {
		runtime.ReadMemStats(&m.start)
		return
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.rounds++
	m.mallocs += end.Mallocs - m.start.Mallocs
	m.bytes += end.TotalAlloc - m.start.TotalAlloc
	m.gcs += uint64(end.NumGC - m.start.NumGC)
	m.pauseNS += end.PauseTotalNs - m.start.PauseTotalNs
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the final result line.
func printResult(attempted, failed int, metrics map[string]metric) error {
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", k, m.Value)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sameSim fails unless out reproduces the simulation of the earlier
// rounds exactly: every sim-clock metric and every layer counter.
func sameSim(prev []*outcome, out *outcome) error {
	if len(prev) == 0 {
		return nil
	}
	ref := prev[0]
	if ref.sim != out.sim {
		return fmt.Errorf("sim-clock metrics differ between rounds at one seed: %+v vs %+v", ref.sim, out.sim)
	}
	for k, v := range ref.layers {
		if w, ok := out.layers[k]; ok && w != v {
			return fmt.Errorf("layer counter %s differs between rounds at one seed: %v vs %v", k, v, w)
		}
	}
	return nil
}

// outDir is where run-time files go: the build directory run.sh uses.
func outDir() string {
	if d := os.Getenv("SERVEBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond999 is the number of samples that lie beyond the p999 rank.
func beyond999(n int) int { return n - int(math.Ceil(0.999*float64(n))) }
