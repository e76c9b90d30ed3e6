// Command hcbench is the repository benchmark. It runs one of three
// workloads against the code as shipped, checks every output it gets, and
// prints its metrics; the last line of its output is one JSON object.
//
//	serve-hit   open- and closed-loop POST /v1/runs over a stored working set
//	serve-cold  closed-loop single runs and sweeps that all miss the store
//	sim-fleet   in-process run.Pipeline fleet specs at N=16 and N=256
//
// With -trace 1 it instead runs every workload traced, in process, and
// prints the per-layer metrics. BENCHMARK.json at the repository root
// records the metrics and the workloads; LAYERS.md beside this file maps
// each per-layer metric to the end-to-end metric it should move.
//
// Run it from the root of a checkout through the wrapper, which builds the
// server and the benchmark from source first:
//
//	bash hcbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	serveBin string
	work     string // scratch directory for stores, removed on exit
}

var workloads = map[string]func(opts, *result) error{
	"serve-hit":  runHit,
	"serve-cold": runCold,
	"sim-fleet":  runFleet,
}

// minTracedSeconds is the shortest whole-second traced run whose serve-hit
// open loop (hitRate requests a second for 1-hitCapShare of the window,
// 75 a second) sends the 1000 requests that leave minBeyond beyond its p99.
const minTracedSeconds = 14

// traceOrder is the order a traced run visits the workloads.
var traceOrder = []string{"serve-hit", "serve-cold", "sim-fleet"}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "serve-hit | serve-cold | sim-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1 runs every workload traced and prints the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch stores go under <root>/.bench_build")
	flag.StringVar(&o.serveBin, "serve", "", "built hcperf-serve binary")
	flag.Parse()
	o.trace = trace == 1
	if err := invoke(o); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

func invoke(o opts) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.serveBin == "" || o.seconds <= 0 {
		return fmt.Errorf("need -serve and a positive -seconds")
	}
	if o.trace && o.seconds < minTracedSeconds {
		return fmt.Errorf("a traced run needs -seconds >= %d: below it the serve-hit open loop sends too few requests for ten beyond its p99", minTracedSeconds)
	}
	work, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work

	r := &result{}
	if o.trace {
		err = runTraced(o, r)
	} else {
		err = fn(o, r)
	}
	if err != nil {
		return err
	}
	if err := r.write(os.Stdout); err != nil {
		return err
	}
	if len(r.problems) > 0 {
		return fmt.Errorf("%d output checks failed", len(r.problems))
	}
	return nil
}
