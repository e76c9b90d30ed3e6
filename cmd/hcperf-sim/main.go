// Command hcperf-sim runs one HCPerf driving scenario under one scheduling
// scheme and reports the driving-performance metrics, optionally exporting
// every recorded time series as CSV.
//
// Usage:
//
//	hcperf-sim -scenario carfollow -scheme hcperf [-seed 1] [-duration 90] [-csv run.csv]
//	hcperf-sim -scenario carfollow -trace out.json     # Chrome-trace job timeline
//	hcperf-sim -scenario carfollow -trace out.csv      # same events as flat CSV
//	hcperf-sim -scenario lanekeep  -scheme apollo
//	hcperf-sim -scenario motivation -scheme apollo
//	hcperf-sim -scenario hardware  -scheme edf
//	hcperf-sim -scenario jam       -scheme hcperf
//	hcperf-sim -scenario combined  -scheme hcperf      # dual-control graph
//	hcperf-sim -spec examples/specs/fusion-overload.json  # declarative spec
//	hcperf-sim -store results/ -scenario carfollow     # persist + replay results
//	hcperf-sim -mode rt -duration 5 -scheme hcperf     # wall-clock executor
//	hcperf-sim -mode tune -budget 32 -parallel 0       # coordinator policy search
//	hcperf-sim -mode tune -spec tpl.json -strategy grid -report tune.json
//
// Each mode reads only its own flags (see modeFlags); setting any other
// flag is a usage error (exit 2). The full experiment suite is
// hcperf-bench's.
//
// Both deterministic modes (sim, tune) go through the internal/run
// pipeline: the request is normalized and content-addressed, and with
// -store the result persists to a disk store shared byte-for-byte with
// hcperf-serve -store — a CLI run pre-warms the server's cache and a
// server-computed result replays here without recomputation.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"hcperf/internal/dag"
	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/rt"
	runpkg "hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/search"
	"hcperf/internal/simtime"
	"hcperf/internal/store"
	"hcperf/internal/version"
)

func main() {
	opts, showVersion, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcperf-sim:", err)
		os.Exit(2)
	}
	if showVersion {
		fmt.Println(version.Get())
		return
	}
	if opts.Mode == "tune" {
		err = runTune(opts)
	} else {
		err = run(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcperf-sim:", err)
		os.Exit(1)
	}
}

// modeFlags lists the flags each mode reads. -mode and -version are read
// by every invocation; setting any flag outside its mode's list is
// rejected before anything runs, because the mode would silently ignore
// it.
var modeFlags = map[string][]string{
	"sim":  {"scenario", "scheme", "seed", "duration", "csv", "trace", "spec", "store"},
	"rt":   {"scheme", "seed", "duration", "trace"},
	"tune": {"scenario", "seed", "duration", "spec", "store", "parallel", "budget", "strategy", "seeds", "objectives", "report"},
}

// parseFlags parses one command line into options and checks every flag
// it sets against modeFlags. A syntax error exits 2 inside the flag
// package; an unknown mode or a flag the mode does not read returns an
// error naming it.
func parseFlags(args []string) (opts options, showVersion bool, err error) {
	fs := flagSet(&opts, &showVersion)
	fs.Parse(args)
	if showVersion {
		return opts, true, nil
	}
	reads, ok := modeFlags[opts.Mode]
	if !ok {
		return opts, false, fmt.Errorf("unknown mode %q (have sim, rt, tune)", opts.Mode)
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "mode" && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s is not read in %s mode", f.Name, opts.Mode)
		}
	})
	return opts, false, err
}

// flagSet defines every hcperf-sim flag over opts and showVersion.
func flagSet(opts *options, showVersion *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("hcperf-sim", flag.ExitOnError)
	fs.StringVar(&opts.Scenario, "scenario", "carfollow", strings.Join(scenario.ScenarioNames(), " | "))
	fs.StringVar(&opts.Scheme, "scheme", "hcperf", "hpf | edf | edfvd | apollo | hcperf | hcperf-internal")
	fs.Int64Var(&opts.Seed, "seed", 1, "random seed")
	fs.Float64Var(&opts.Duration, "duration", 0, "override scenario duration (seconds; 0 = default)")
	fs.StringVar(&opts.CSVPath, "csv", "", "write recorded series to this CSV file")
	fs.StringVar(&opts.TracePath, "trace", "", "write per-job lifecycle events to this file (.csv = CSV, else Chrome trace JSON)")
	fs.StringVar(&opts.SpecPath, "spec", "", "run a declarative scenario spec from this JSON file (overrides -scenario/-scheme/-seed/-duration)")
	fs.StringVar(&opts.StoreDir, "store", "", "persist results to this disk store directory (shared with hcperf-serve -store)")
	fs.StringVar(&opts.Mode, "mode", "sim", "sim (discrete-event) | rt (wall clock) | tune (coordinator policy search)")
	fs.IntVar(&opts.Parallel, "parallel", 1, "tune worker count: N>=1 workers, 0 = GOMAXPROCS")
	fs.IntVar(&opts.Budget, "budget", 0, "tune candidate-evaluation budget (0 = default)")
	fs.StringVar(&opts.Strategy, "strategy", "", "tune search strategy: evolve | grid | random (default evolve)")
	fs.IntVar(&opts.TuneSeeds, "seeds", 0, "tune replicas per candidate (0 = default)")
	fs.StringVar(&opts.Objectives, "objectives", "", "tune objectives, comma-separated (default all: "+strings.Join(search.ObjectiveNames(), ",")+")")
	fs.StringVar(&opts.ReportPath, "report", "", "tune: write the full search report JSON to this file")
	fs.BoolVar(showVersion, "version", false, "print build identity and exit")
	return fs
}

// options carries one CLI invocation's resolved flags.
type options struct {
	Scenario, Scheme   string
	Seed               int64
	Duration           float64
	CSVPath, TracePath string
	SpecPath           string
	StoreDir           string
	Mode               string
	Parallel           int

	// Tune-mode knobs.
	Budget, TuneSeeds    int
	Strategy, Objectives string
	ReportPath           string

	// Metrics receives the store tier counters; nil gets a private set.
	// Tests inject one to observe disk hits and misses.
	Metrics *store.Metrics
}

// newPipeline builds this invocation's run pipeline: when -store is set,
// with the disk tier shared byte-for-byte with hcperf-serve. An unusable
// store directory — the read-only-volume failure mode — degrades to no
// persistence with a warning rather than failing the run.
func newPipeline(opts options) *runpkg.Pipeline {
	p := &runpkg.Pipeline{}
	if opts.StoreDir != "" {
		d, err := store.OpenDisk(opts.StoreDir, 0, opts.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcperf-sim: %v; continuing without persistence\n", err)
		} else {
			p.Disk = d
		}
	}
	return p
}

// runTune performs a coordinator policy search through the run pipeline:
// the spec (or -scenario shorthand) is the template every candidate tuning
// is stamped onto, and the result is the canonical Pareto front plus the
// per-objective best versus the paper defaults. With -store an identical
// search replays from disk instead of re-evaluating its candidate budget.
func runTune(opts options) error {
	var spec scenario.Spec
	if opts.SpecPath != "" {
		f, err := os.Open(opts.SpecPath)
		if err != nil {
			return err
		}
		var derr error
		spec, derr = scenario.DecodeSpec(f)
		f.Close()
		if derr != nil {
			return fmt.Errorf("%s: %w", opts.SpecPath, derr)
		}
	} else {
		spec = scenario.Spec{Scenario: opts.Scenario, Duration: opts.Duration}
	}
	rq := search.Request{
		Spec:     spec,
		Strategy: opts.Strategy,
		Budget:   opts.Budget,
		Seeds:    opts.TuneSeeds,
		Seed:     opts.Seed,
	}
	if opts.Objectives != "" {
		rq.Objectives = strings.Split(opts.Objectives, ",")
	}
	norm, err := rq.Normalize()
	if err != nil {
		return err
	}
	fmt.Printf("tune: %s template, strategy=%s budget=%d seeds=%d seed=%d\n",
		norm.Spec.Scenario, norm.Strategy, norm.Budget, norm.Seeds, norm.Seed)
	start := time.Now()
	ctx := runpkg.WithProgress(context.Background(), func(p search.Progress) {
		fmt.Printf("tune: gen %d done, %d/%d candidates evaluated\n", p.Generations, p.Evaluated, norm.Budget)
	})
	ctx = runpkg.WithParallelism(ctx, opts.Parallel)
	p := newPipeline(opts)
	res, tier, _, err := p.Run(ctx, runpkg.Request{Optimize: &norm})
	if err != nil {
		return err
	}
	rep := res.Optimize
	if rep == nil {
		return fmt.Errorf("tune: result carries no search report")
	}
	if tier == store.TierDisk {
		fmt.Printf("tune: result replayed from %s (no candidates re-evaluated)\n", opts.StoreDir)
	}
	table := &experiment.Report{
		ID:     "tune",
		Title:  fmt.Sprintf("Coordinator policy search (%s): baselines and Pareto front", rep.Strategy),
		Header: rep.Header(),
		Rows:   rep.Rows(),
	}
	if err := table.WriteText(os.Stdout); err != nil {
		return err
	}
	best := &experiment.Report{
		ID:     "tune-best",
		Title:  "Best candidate per objective vs paper defaults",
		Header: []string{"objective", "best", "default", "vs default", "candidate"},
		Rows:   rep.BestRows(),
	}
	if err := best.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("tune: %d candidates, %d generations, %.2fs\n", rep.Evaluated, rep.Generations, time.Since(start).Seconds())
	if opts.ReportPath != "" {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.ReportPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("tune: report written to %s\n", opts.ReportPath)
	}
	return nil
}

// traceCapacity bounds the in-memory lifecycle event buffer for rt mode: at
// the 23-task graph's aggregate job rate a full-length run fits comfortably,
// and overflow drops oldest-first with a warning rather than growing
// without bound. (Pipeline runs use internal/run's identical bound.)
const traceCapacity = 1 << 20

// newTraceRing returns the lifecycle collector for rt-mode -trace, or nil
// when the flag is unset.
func newTraceRing(tracePath string) (*lifecycle.Ring, error) {
	if tracePath == "" {
		return nil, nil
	}
	return lifecycle.NewRing(traceCapacity)
}

// writeTraceEvents exports collected lifecycle events: .csv gets the flat
// CSV schema, anything else the Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto.
func writeTraceEvents(tracePath string, events []lifecycle.Event) error {
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(tracePath, ".csv") {
		err = lifecycle.WriteCSV(f, events)
	} else {
		err = lifecycle.WriteChromeTrace(f, events)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%d lifecycle events written to %s\n", len(events), tracePath)
	return nil
}

func run(opts options) error {
	if opts.Mode == "rt" {
		scheme, err := scenario.ParseScheme(opts.Scheme)
		if err != nil {
			return err
		}
		ring, err := newTraceRing(opts.TracePath)
		if err != nil {
			return err
		}
		if err := runWallClock(scheme, opts.Seed, opts.Duration, ring); err != nil {
			return err
		}
		if ring == nil {
			return nil
		}
		if n := ring.Dropped(); n > 0 {
			fmt.Printf("trace: %d oldest events dropped (buffer capacity %d)\n", n, traceCapacity)
		}
		return writeTraceEvents(opts.TracePath, ring.Events())
	}
	if opts.Mode != "sim" {
		return fmt.Errorf("unknown mode %q", opts.Mode)
	}

	// Every sim run goes through the run pipeline: the CLI flags are just
	// shorthand for a minimal request, and -spec supplies a full
	// declarative spec from disk. fleet-aware execution, normalization,
	// content addressing and the optional disk store are all the
	// pipeline's.
	req := runpkg.Request{Trace: opts.TracePath != ""}
	if opts.SpecPath != "" {
		f, err := os.Open(opts.SpecPath)
		if err != nil {
			return err
		}
		spec, derr := scenario.DecodeSpec(f)
		f.Close()
		if derr != nil {
			return fmt.Errorf("%s: %w", opts.SpecPath, derr)
		}
		req.Spec = &spec
	} else {
		req.Scenario = opts.Scenario
		req.Scheme = opts.Scheme
		req.Seed = opts.Seed
		req.Duration = opts.Duration
	}

	p := newPipeline(opts)
	res, tier, digest, err := p.Run(context.Background(), req)
	if err != nil {
		return err
	}
	if tier == store.TierDisk {
		fmt.Printf("replayed from store %s (digest %s)\n", opts.StoreDir, digest[:12])
	}
	rep := res.Report
	fmt.Println(rep.Title)
	width := 0
	for _, row := range rep.Rows {
		if len(row[0]) > width {
			width = len(row[0])
		}
	}
	for _, row := range rep.Rows {
		fmt.Printf("%-*s  %s\n", width, row[0], row[1])
	}
	for _, note := range rep.Notes {
		fmt.Println(note)
	}

	if opts.CSVPath != "" && rep.Series != nil {
		f, err := os.Create(opts.CSVPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.Series.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", opts.CSVPath)
	}
	return writeTraceEvents(opts.TracePath, res.Events)
}

// statusTicks calls status at each of the first ⌈duration⌉ ticks: a run of
// duration seconds on a 1 s ticker reports once a second and stops at the
// tick that ends it, wherever that tick lands against the wall clock.
func statusTicks(ticks <-chan time.Time, duration float64, status func()) {
	for n := 0; float64(n) < duration; n++ {
		<-ticks
		status()
	}
}

// runWallClock demonstrates the real-time executor: the 23-task graph on
// wall clock with a synthetic oscillating tracking error driving the HCPerf
// coordinators.
func runWallClock(scheme scenario.Scheme, seed int64, duration float64, tracer *lifecycle.Ring) error {
	if duration <= 0 {
		duration = 5
	}
	graph, err := dag.ADGraph23()
	if err != nil {
		return err
	}
	scheduler, dyn, err := scenario.NewScheduler(scheme)
	if err != nil {
		return err
	}
	var trackErr func(simtime.Time) float64
	if dyn != nil {
		trackErr = func(t simtime.Time) float64 {
			return math.Abs(1.5 * math.Sin(2*math.Pi*float64(t)/7))
		}
	}
	cfg := rt.Config{
		Kernel: lifecycle.Config{
			Graph:      graph,
			Scheduler:  scheduler,
			Seed:       seed,
			MaxDataAge: scenario.DefaultMaxDataAge,
		},
		NumProcs:        2,
		TrackingError:   trackErr,
		DisableExternal: scheme == scenario.SchemeHCPerfInternal,
	}
	if tracer != nil {
		cfg.Kernel.Tracer = tracer
	}
	ex, err := rt.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("wall-clock executor: scheme=%v M=2, running %.0fs...\n", scheme, duration)
	if err := ex.Start(); err != nil {
		return err
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	statusTicks(ticker.C, duration, func() {
		st := ex.Stats()
		fmt.Printf("t=%4.0fs released=%d completed=%d missed=%d cmds=%d miss=%.3f\n",
			float64(ex.Elapsed()), st.Released, st.Completed, st.Missed,
			st.ControlCommands, st.MissRatio())
	})
	if err := ex.Stop(); err != nil {
		return err
	}
	st := ex.Stats()
	fmt.Printf("final: commands=%d miss=%.4f e2e-miss=%.4f\n",
		st.ControlCommands, st.MissRatio(), st.E2EMissRatio())
	return nil
}
