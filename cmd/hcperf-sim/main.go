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
//	hcperf-sim -mode suite -parallel 4                 # full experiment suite
//	hcperf-sim -mode tune -budget 32 -parallel 0       # coordinator policy search
//	hcperf-sim -mode tune -spec tpl.json -strategy grid -report tune.json
//
// Every deterministic mode (sim, spec, suite, tune) goes through the
// internal/run pipeline: the request is normalized and content-addressed,
// and with -store the result persists to a disk store shared byte-for-byte
// with hcperf-serve -store — a CLI run pre-warms the server's cache and a
// server-computed result replays here without recomputation.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"hcperf/internal/dag"
	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/rt"
	runpkg "hcperf/internal/run"
	"hcperf/internal/runner"
	"hcperf/internal/scenario"
	"hcperf/internal/sched"
	"hcperf/internal/search"
	"hcperf/internal/simtime"
	"hcperf/internal/store"
	"hcperf/internal/version"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "carfollow", "carfollow | lanekeep | motivation | hardware | jam | combined")
		schemeName   = flag.String("scheme", "hcperf", "hpf | edf | edfvd | apollo | hcperf | hcperf-internal")
		seed         = flag.Int64("seed", 1, "random seed")
		duration     = flag.Float64("duration", 0, "override scenario duration (seconds; 0 = default)")
		csvPath      = flag.String("csv", "", "write recorded series to this CSV file")
		tracePath    = flag.String("trace", "", "write per-job lifecycle events to this file (.csv = CSV, else Chrome trace JSON)")
		specPath     = flag.String("spec", "", "run a declarative scenario spec from this JSON file (overrides -scenario/-scheme/-seed/-duration)")
		storeDir     = flag.String("store", "", "persist results to this disk store directory (shared with hcperf-serve -store)")
		mode         = flag.String("mode", "sim", "sim (discrete-event) | rt (wall clock) | suite (full experiment suite) | tune (coordinator policy search)")
		parallel     = flag.Int("parallel", 1, "suite/tune worker count: N>=1 workers, 0 = GOMAXPROCS")
		budget       = flag.Int("budget", 0, "tune candidate-evaluation budget (0 = default)")
		strategy     = flag.String("strategy", "", "tune search strategy: evolve | grid | random (default evolve)")
		tuneSeeds    = flag.Int("seeds", 0, "tune replicas per candidate (0 = default)")
		objectives   = flag.String("objectives", "", "tune objectives, comma-separated (default all: "+strings.Join(search.ObjectiveNames(), ",")+")")
		reportPath   = flag.String("report", "", "tune: write the full search report JSON to this file")
		showVersion  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	opts := options{
		Scenario: *scenarioName, Scheme: *schemeName,
		Seed: *seed, Duration: *duration,
		CSVPath: *csvPath, TracePath: *tracePath, SpecPath: *specPath,
		StoreDir: *storeDir, Mode: *mode,
		Parallel: *parallel,
		Budget:   *budget, Strategy: *strategy, TuneSeeds: *tuneSeeds,
		Objectives: *objectives, ReportPath: *reportPath,
	}
	var err error
	if *mode == "tune" {
		err = runTune(opts)
	} else {
		err = run(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcperf-sim:", err)
		os.Exit(1)
	}
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

// newPipeline builds this invocation's run pipeline and the store counters
// it reports into: when -store is set, the disk tier shared byte-for-byte
// with hcperf-serve. An unusable store directory — the read-only-volume
// failure mode — degrades to no persistence with a warning rather than
// failing the run.
func newPipeline(opts options) (*runpkg.Pipeline, *store.Metrics) {
	m := opts.Metrics
	if m == nil {
		m = &store.Metrics{}
	}
	p := &runpkg.Pipeline{}
	if opts.StoreDir != "" {
		d, err := store.OpenDisk(opts.StoreDir, 0, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcperf-sim: %v; continuing without persistence\n", err)
		} else {
			p.Disk = d
		}
	}
	return p, m
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
	p, _ := newPipeline(opts)
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

// parseScheme resolves a scheme name via the shared scenario parser.
func parseScheme(name string) (scenario.Scheme, error) {
	return scenario.ParseScheme(name)
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
	if opts.Mode == "suite" || opts.Mode == "experiments" {
		if opts.TracePath != "" {
			return fmt.Errorf("-trace is not supported in suite mode")
		}
		if opts.SpecPath != "" {
			return fmt.Errorf("-spec is not supported in suite mode")
		}
		return runSuite(opts)
	}
	if opts.Mode == "rt" {
		if opts.SpecPath != "" {
			return fmt.Errorf("-spec is not supported in rt mode")
		}
		if opts.StoreDir != "" {
			return fmt.Errorf("-store is not supported in rt mode (wall-clock runs are not content-addressable)")
		}
		scheme, err := parseScheme(opts.Scheme)
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

	p, _ := newPipeline(opts)
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

// runSuite reproduces the full evaluation — every registered experiment —
// through the run pipeline. Experiments fan out across the worker pool and
// each experiment's internal scheme/seed sweeps use the same worker count,
// so -parallel N engages the whole machine while the reports stay in
// deterministic registry order (and, by the determinism harness, stay
// byte-identical to a serial run). With -store each report is
// content-addressed, so a repeated suite — or one warmed by hcperf-serve —
// replays finished experiments from disk instead of recomputing them.
func runSuite(opts options) error {
	experiment.SetParallelism(opts.Parallel)
	list := experiment.List()
	fmt.Printf("suite: %d experiments (%s..%s)\n", len(list), list[0].ID, list[len(list)-1].ID)
	start := time.Now()
	p, m := newPipeline(opts)
	reports, err := runner.Map(context.Background(), opts.Parallel, experiment.IDs(),
		func(ctx context.Context, id string) (*experiment.Report, error) {
			res, _, _, err := p.Run(ctx, runpkg.Request{Experiment: id, Seed: opts.Seed})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			return res.Report, nil
		})
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	if err := experiment.WriteReports(os.Stdout, reports); err != nil {
		return err
	}
	if hits := m.DiskHits.Load(); hits > 0 {
		fmt.Printf("suite: %d of %d reports replayed from %s\n", hits, len(reports), opts.StoreDir)
	}
	fmt.Printf("suite: %d experiments, seed %d, parallel=%d, %.2fs\n",
		len(reports), opts.Seed, opts.Parallel, time.Since(start).Seconds())
	return nil
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
	var scheduler sched.Scheduler
	var trackErr func(simtime.Time) float64
	switch scheme {
	case scenario.SchemeHCPerf, scenario.SchemeHCPerfInternal:
		scheduler = sched.NewDynamic(0)
		trackErr = func(t simtime.Time) float64 {
			return math.Abs(1.5 * math.Sin(2*math.Pi*float64(t)/7))
		}
	case scenario.SchemeHPF:
		scheduler = sched.HPF{}
	case scenario.SchemeEDF:
		scheduler = sched.EDF{}
	case scenario.SchemeEDFVD:
		scheduler = sched.NewEDFVD(scenario.EDFVDScale)
	case scenario.SchemeApollo:
		scheduler = sched.Apollo{}
	default:
		return fmt.Errorf("unsupported scheme %v", scheme)
	}
	cfg := rt.Config{
		Graph:           graph,
		Scheduler:       scheduler,
		NumProcs:        2,
		Seed:            seed,
		TrackingError:   trackErr,
		DisableExternal: scheme == scenario.SchemeHCPerfInternal,
		MaxDataAge:      scenario.DefaultMaxDataAge,
	}
	if tracer != nil {
		cfg.Tracer = tracer
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
	deadline := time.Now().Add(time.Duration(duration * float64(time.Second)))
	for time.Now().Before(deadline) {
		<-ticker.C
		st := ex.Stats()
		fmt.Printf("t=%4.0fs released=%d completed=%d missed=%d cmds=%d miss=%.3f\n",
			float64(ex.Elapsed()), st.Released, st.Completed, st.Missed,
			st.ControlCommands, st.MissRatio())
	}
	if err := ex.Stop(); err != nil {
		return err
	}
	st := ex.Stats()
	fmt.Printf("final: commands=%d miss=%.4f e2e-miss=%.4f\n",
		st.ControlCommands, st.MissRatio(), st.E2EMissRatio())
	return nil
}
