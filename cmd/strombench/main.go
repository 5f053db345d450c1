// Command strombench regenerates the tables and figures of the StRoM
// paper's evaluation on the simulated testbed.
//
// Usage:
//
//	strombench -list
//	strombench [-quick|-full] [-scenario NAME] [-seed N] [-j N]
//	           [-csv DIR] [-metrics FILE] [-trace FILE] [-jsonl FILE]
//	           [-bench FILE] [-cpuprofile FILE] [-memprofile FILE] [exp ...]
//
// With no experiment names, the selected scenario's suite runs. Experiment
// names are table1, table2, table3, resources, fig5a...fig13b, abl-*, and
// chaos-*.
//
// -scenario picks one entry of experiments.Scenarios(): the suite that
// runs when no names are given, and the instrumented run that
// -metrics/-trace/-jsonl export. Each scenario runs on its own engine
// seeded from -seed, so its exports are byte-identical at every -j value.
//
//   - clean (the default) runs every figure in paper order followed by
//     the ablations, and exports one-sided verbs, kernel GETs and a 4%
//     loss phase on the two-machine testbed.
//   - chaos runs the fault-injection suite (bursty loss and link-flap
//     sweeps, the crash/restart, protection, incast and KV sweeps, each
//     with the protocol invariant checker attached), and exports every
//     fault class at once plus a rogue requester. Chaos runs are driven
//     entirely off the engine RNG, so re-running with the same -seed
//     replays the identical fault schedule — including the recovery
//     sweep's crash times, verb deadlines and reconnect backoff jitter.
//   - incast runs the paper suite, and exports the switched incast storm:
//     four senders converge on one switch port with a victim flow riding
//     along, PFC and ECN engage, and DCQCN is enabled mid-run — the
//     scenario the pfc-pause and ecn-marked alert rules are proven
//     against.
//   - kv runs the chaos-kv sweep (sharded primary-backup KV cluster under
//     loss, crash cycles and an incast storm, failing on any exactly-once
//     violation), and exports the storm regime — the stream the
//     kv-heartbeat failure detector and the retry-storm rule are proven
//     against.
//   - kvlarge runs the chaos-kv-large sweep (out-of-line CRC-guarded
//     extents under a racing overwriter, bursty loss and crash cycles,
//     failing on any torn value served), and exports the full-fault
//     regime — the stream the torn-read rate rule is proven against.
//
// Figure generators are independent simulations, so -j runs them on a
// worker pool. Results are printed in request order and each generator
// is a pure function of (options, seed), so stdout is byte-identical at
// every -j value; per-experiment timing goes to stderr.
//
// -metrics and -trace write the scenario's metrics registry and
// Perfetto-compatible trace as JSON; load the trace file in
// ui.perfetto.dev or chrome://tracing. -jsonl streams the scenario's
// telemetry as JSON Lines: periodic health scrapes of every port and
// link, registry snapshots with deltas, and the sim-time alert engine's
// fire/resolve events and final summaries — one envelope per line. Pipe
// the file through stromtail for a rollup and the alert timeline.
//
// -bench FILE writes a bench snapshot — per-experiment wall clock plus
// every figure value — for the committed BENCH_*.json trajectory; use
// `stromres diff OLD NEW` to gate on it. -cpuprofile/-memprofile write
// pprof profiles of the whole run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"strom/internal/benchsnap"
	"strom/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts (smoke test)")
	full := flag.Bool("full", false, "paper-scale inputs (Fig. 11 runs the real 128-1024 MB)")
	scenarioName := flag.String("scenario", "clean", "instrumented scenario: its suite runs when no names are given, and -metrics/-trace/-jsonl export it ("+strings.Join(scenarioNames(), ", ")+")")
	seed := flag.Int64("seed", 1, "simulation seed")
	jobs := flag.Int("j", experiments.DefaultParallelism(), "experiment generators to run in parallel")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	metricsOut := flag.String("metrics", "", "write instrumented-scenario metrics JSON to this file")
	traceOut := flag.String("trace", "", "write instrumented-scenario Perfetto trace JSON to this file")
	jsonlOut := flag.String("jsonl", "", "stream instrumented-scenario telemetry (health scrapes, alerts) as JSON Lines to this file")
	benchOut := flag.String("bench", "", "write a bench snapshot (wall clock + figure values) JSON to this file")
	benchLabel := flag.String("benchlabel", "", "label stored in the -bench snapshot (default: snapshot file base name)")
	benchNote := flag.String("benchnote", "", "free-form note stored in the -bench snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()

	// Registered first so it runs last: the profile writers below must
	// flush before the process exits on a failure.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "strombench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "strombench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "strombench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "strombench:", err)
			}
		}()
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "strombench:", err)
		exitCode = 1
	}
	scenario, err := lookupScenario(*scenarioName)
	if err != nil {
		fail(err)
		return
	}

	if *list {
		fmt.Println("table1 table2 table3 resources")
		for _, g := range allGenerators() {
			fmt.Println(g.Name)
		}
		return
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *full {
		opts.ShuffleScale = 1
	}
	opts.Seed = *seed

	names := flag.Args()
	preamble := false
	if len(names) == 0 {
		names = scenario.Suite
		if names == nil {
			preamble = true // whole suite: lead with the static tables
			for _, g := range append(experiments.Figures(), experiments.Ablations()...) {
				names = append(names, g.Name)
			}
		}
	}

	results, err := run(names, opts, *jobs, *csvDir, preamble)
	if err != nil {
		fail(err)
		return
	}
	if err := writeTelemetry(opts, scenario, *metricsOut, *traceOut, *jsonlOut); err != nil {
		fail(err)
		return
	}
	if *benchOut != "" {
		if err := writeBenchSnapshot(*benchOut, *benchLabel, *benchNote, opts, results); err != nil {
			fail(err)
			return
		}
	}
}

// writeBenchSnapshot records the run as a bench snapshot: per-generator
// wall clock plus every figure value (deterministic at a given seed).
func writeBenchSnapshot(path, label, note string, opts experiments.Options, results []experiments.Result) error {
	if label == "" {
		label = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	snap := benchsnap.New(label)
	snap.Note = note
	snap.Command = strings.Join(os.Args[1:], " ")
	snap.GOMAXPROCS = runtime.GOMAXPROCS(0)
	snap.NumCPU = runtime.NumCPU()
	snap.Seed = opts.Seed
	var totalMS float64
	for _, r := range results {
		ms := float64(r.Elapsed.Microseconds()) / 1000
		snap.Put("wall_ms/"+r.Name, ms)
		totalMS += ms
		for _, s := range r.Fig.Series {
			for _, p := range s.Points {
				snap.Put(fmt.Sprintf("value/%s/%s/%s", r.Name, s.Name, p.XLabel), p.Y)
			}
		}
	}
	snap.Put("wall_ms/_total", totalMS)
	return benchsnap.Write(path, snap)
}

// allGenerators lists every runnable generator: the paper figures, the
// ablations and the chaos suite.
func allGenerators() []experiments.Generator {
	gens := append(experiments.Figures(), experiments.Ablations()...)
	return append(gens, experiments.Chaos()...)
}

// scenarioNames lists the -scenario values in table order.
func scenarioNames() []string {
	var names []string
	for _, sc := range experiments.Scenarios() {
		names = append(names, sc.Name)
	}
	return names
}

// lookupScenario resolves a -scenario value.
func lookupScenario(name string) (experiments.Scenario, error) {
	for _, sc := range experiments.Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return experiments.Scenario{}, fmt.Errorf("unknown scenario %q (valid: %s)", name, strings.Join(scenarioNames(), ", "))
}

// writeTelemetry runs the scenario once and writes the requested
// exports. A no-op when no export path was given.
func writeTelemetry(opts experiments.Options, sc experiments.Scenario, metricsPath, tracePath, jsonlPath string) (err error) {
	if metricsPath == "" && tracePath == "" && jsonlPath == "" {
		return nil
	}
	var files []*os.File
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	open := func(path string) (io.Writer, error) {
		if path == "" {
			return nil, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	var w experiments.Exports
	if w.Metrics, err = open(metricsPath); err != nil {
		return err
	}
	if w.Trace, err = open(tracePath); err != nil {
		return err
	}
	if w.JSONL, err = open(jsonlPath); err != nil {
		return err
	}
	return sc.Export(opts, w)
}

// run resolves names into tables (rendered inline) and generators
// (executed on the worker pool), prints everything in request order and
// returns the generator results (for the -bench snapshot).
func run(names []string, opts experiments.Options, jobs int, csvDir string, preamble bool) ([]experiments.Result, error) {
	byName := make(map[string]experiments.Generator)
	for _, g := range allGenerators() {
		byName[g.Name] = g
	}

	tables := map[string]func() string{
		"table1":    experiments.Table1,
		"table2":    experiments.Table2,
		"table3":    experiments.Table3,
		"resources": experiments.ResourceReport,
	}
	var gens []experiments.Generator
	for _, name := range names {
		if _, ok := tables[name]; ok {
			continue
		}
		g, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		gens = append(gens, g)
	}

	all := experiments.RunGenerators(gens, opts, jobs)
	results := make(map[string]experiments.Result, len(all))
	for _, r := range all {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		results[r.Name] = r
	}

	if preamble {
		fmt.Println(experiments.Table1())
		fmt.Println(experiments.Table2())
		fmt.Println(experiments.ResourceReport())
	}
	for _, name := range names {
		if render, ok := tables[name]; ok {
			fmt.Println(render())
			continue
		}
		r := results[name]
		fmt.Println(r.Fig.String())
		fmt.Fprintf(os.Stderr, "(%s generated in %v)\n", name, r.Elapsed.Round(time.Millisecond))
		if csvDir != "" {
			path := filepath.Join(csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(r.Fig.CSV()), 0o644); err != nil {
				return nil, fmt.Errorf("%s: writing CSV: %w", name, err)
			}
		}
	}
	return all, nil
}
