// Command hcperf-bench regenerates the tables and figures of the HCPerf
// evaluation (paper §VII). With no flags it runs every registered
// experiment and prints paper-style reports; -exp selects a single
// experiment and -csv exports the raw series for plotting.
//
// It is also the entry point for the machine-readable performance
// baseline: -json runs the hot-path benchmark suite (internal/perf) and
// emits BENCH_baseline.json-style output, and -check diffs a fresh run
// against a checked-in baseline, exiting non-zero on regression. This is
// what `make bench-json`, `make bench-check` and the CI bench-gate job run.
//
// Usage:
//
//	hcperf-bench [-exp fig13] [-seed 1] [-csv out/]
//	hcperf-bench -list
//	hcperf-bench -json [-benchtime 100x] [-out BENCH_baseline.json]
//	hcperf-bench -check BENCH_baseline.json [-benchtime 100x] [-out fresh.json]
//	hcperf-bench -check BENCH_baseline.json -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hcperf/internal/experiment"
	"hcperf/internal/perf"
)

// errRegression marks a benchmark-gate failure so main can exit non-zero
// without the "hcperf-bench:" prefix drowning the comparison table.
var errRegression = errors.New("performance regression against baseline")

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (default: all)")
		seed     = flag.Int64("seed", 1, "base random seed")
		csv      = flag.String("csv", "", "directory for CSV export of series and rows")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", 1, "worker count: N>=1 workers, 0 = GOMAXPROCS")

		jsonOut   = flag.Bool("json", false, "run the perf benchmark suite and emit a JSON baseline")
		check     = flag.String("check", "", "baseline JSON file to compare a fresh suite run against")
		out       = flag.String("out", "", "file for the fresh baseline JSON (default stdout with -json, none with -check)")
		benchtime = flag.String("benchtime", "10ms", "benchtime for the perf suite (e.g. 10ms, 100x)")
		repeat    = flag.Int("repeat", 3, "suite repetitions; per-benchmark minimum ns/op is kept (noise robustness)")
		maxNs     = flag.Float64("max-ns-regress", perf.DefaultThresholds().NsPerOp, "max tolerated relative ns/op regression")
		maxAllocs = flag.Float64("max-allocs-regress", perf.DefaultThresholds().AllocsPerOp, "max tolerated relative allocs/op regression")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU pprof profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a heap pprof profile at exit to this file")
	)
	flag.Parse()
	stopProf, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcperf-bench:", err)
		os.Exit(1)
	}
	switch {
	case *jsonOut:
		err = runJSON(*benchtime, *repeat, *out)
	case *check != "":
		err = runCheck(*check, *benchtime, *repeat, *out, perf.Thresholds{NsPerOp: *maxNs, AllocsPerOp: *maxAllocs})
	default:
		_, err = run(*exp, *seed, *csv, *list, *parallel)
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		if !errors.Is(err, errRegression) {
			fmt.Fprintln(os.Stderr, "hcperf-bench:", err)
		}
		os.Exit(1)
	}
}

// runJSON runs the perf suite and writes the baseline JSON to outPath
// (stdout if empty).
func runJSON(benchtime string, repeat int, outPath string) error {
	base, err := perf.RunSuiteBest(benchtime, repeat)
	if err != nil {
		return err
	}
	if outPath == "" {
		return base.Write(os.Stdout)
	}
	if err := base.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Printf("perf baseline (%d benchmarks, benchtime %s) written to %s\n",
		len(base.Results), benchtime, outPath)
	return nil
}

// runCheck runs the perf suite, diffs it against the baseline at checkPath
// and prints the benchstat-style comparison. The fresh run is additionally
// written to outPath when given (the CI gate uploads it as an artifact).
// Returns errRegression when any metric exceeds its threshold.
func runCheck(checkPath, benchtime string, repeat int, outPath string, th perf.Thresholds) error {
	old, err := perf.ReadFile(checkPath)
	if err != nil {
		return err
	}
	fresh, err := perf.RunSuiteBest(benchtime, repeat)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := fresh.WriteFile(outPath); err != nil {
			return err
		}
	}
	cmp := perf.Compare(old, fresh, th)
	fmt.Print(cmp)
	if cmp.Regressed() {
		fmt.Printf("FAIL: regression vs %s (thresholds: ns/op +%.0f%%, allocs/op +%.0f%%; '!' marks the exceeded metric)\n",
			checkPath, th.NsPerOp*100, th.AllocsPerOp*100)
		return errRegression
	}
	fmt.Printf("ok: no regression vs %s (thresholds: ns/op +%.0f%%, allocs/op +%.0f%%)\n",
		checkPath, th.NsPerOp*100, th.AllocsPerOp*100)
	return nil
}

// startProfiles starts CPU profiling and arranges a heap snapshot at stop,
// for the paths the CI bench-gate diagnoses from artifacts. The returned
// stop function is safe to call once, with both paths optional.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// run prints every experiment's report (or one, with exp) and returns the
// reports, rendered in registry order whatever the worker count.
func run(exp string, seed int64, csvDir string, list bool, parallel int) ([]*experiment.Report, error) {
	if list {
		for _, info := range experiment.List() {
			fmt.Printf("%-16s %s\n", info.ID, info.Title)
		}
		return nil, nil
	}
	ids := experiment.IDs()
	if exp != "" {
		ids = []string{exp}
	}
	reports, err := experiment.RunAll(context.Background(), ids, seed, parallel)
	if err != nil {
		return nil, err
	}
	for _, rep := range reports {
		if err := rep.WriteText(os.Stdout); err != nil {
			return nil, err
		}
		fmt.Println()
	}
	if csvDir != "" {
		for _, rep := range reports {
			if err := rep.WriteCSV(csvDir); err != nil {
				return nil, err
			}
		}
		fmt.Printf("CSV series written to %s\n", csvDir)
	}
	return reports, nil
}
