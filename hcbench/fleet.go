package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"hcperf/internal/fleet"
	"hcperf/internal/lifecycle"
	"hcperf/internal/run"
)

const (
	// fleetDuration is the simulated length of every sim-fleet run, the
	// length of examples/specs/platoon-fleet.json.
	fleetDuration = 12.0
	// fleetSmallShare is the share of --seconds spent on N=16 runs; the
	// N=256 runs get the rest.
	fleetSmallShare = 0.4
)

// fleetSizes are the two fleet sizes; the per-vehicle cost gap between
// them is the N-dependent term of the fleet hot path.
var fleetSizes = []int{16, 256}

// fleetRequests returns the platoon fleet request of each size, with the
// fleet seed taken from the workload seed.
func fleetRequests(seed int64) (map[int]run.Request, error) {
	rng := newRNG(seed, 8)
	out := make(map[int]run.Request)
	for _, n := range fleetSizes {
		b, err := json.Marshal(map[string]any{"spec": fleetSpec(n, fleetDuration, 1+rng.Int64N(1<<40))})
		if err != nil {
			return nil, err
		}
		var req run.Request
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		out[n] = req
	}
	return out, nil
}

// fleetRuns is the untraced outcome of one size.
type fleetRuns struct {
	walls  []float64 // wall ms per run
	cpus   []float64 // process CPU ms per run
	digest string
	rows   [][]string
}

// runPipeline runs req through run.Pipeline without a store, exactly what
// hcperf-sim -spec runs, and checks its report digest against the first
// repeat's.
func (f *fleetRuns) runPipeline(req run.Request, r *result) error {
	p := &run.Pipeline{}
	start, cpu0 := time.Now(), selfCPU()
	res, _, _, err := p.Run(context.Background(), req)
	wall, cpu := time.Since(start), selfCPU()-cpu0
	if err != nil {
		return err
	}
	d, err := res.Report.Digest()
	if err != nil {
		return err
	}
	switch {
	case f.digest == "":
		f.digest, f.rows = d, res.Report.Rows
	case d != f.digest:
		r.fail("sim-fleet: report digest %s differs from the first repeat's %s", d, f.digest)
	}
	f.walls = append(f.walls, ms(wall))
	f.cpus = append(f.cpus, ms(cpu))
	return nil
}

// fleetSetup builds the requests and warms the simulator with one N=16
// run.
func fleetSetup(seed int64, r *result) (map[int]run.Request, error) {
	reqs, err := fleetRequests(seed)
	if err != nil {
		return nil, err
	}
	var warm fleetRuns
	return reqs, warm.runPipeline(reqs[fleetSizes[0]], r)
}

// driveFleet runs each size repeatedly for its share of d.
func driveFleet(reqs map[int]run.Request, d time.Duration, r *result) (map[int]*fleetRuns, error) {
	out := make(map[int]*fleetRuns)
	for i, n := range fleetSizes {
		share := fleetSmallShare
		if i > 0 {
			share = 1 - fleetSmallShare
		}
		deadline := time.Now().Add(time.Duration(share * float64(d)))
		f := &fleetRuns{}
		for len(f.walls) < 2 || time.Now().Before(deadline) {
			if err := f.runPipeline(reqs[n], r); err != nil {
				return nil, fmt.Errorf("sim-fleet N=%d: %w", n, err)
			}
		}
		out[n] = f
	}
	return out, nil
}

// vsPerS is simulated vehicle-seconds per host second for one run of n
// vehicles taking ms milliseconds.
func vsPerS(n int, ms float64) float64 { return float64(n) * fleetDuration / (ms / 1000) }

// runFleet is the measured sim-fleet run.
func runFleet(o opts, r *result) error {
	var setups setupTimes
	var reqs map[int]run.Request
	for i := 0; i < setupRepeats; i++ {
		err := setups.time(func() (time.Duration, error) {
			var err error
			reqs, err = fleetSetup(o.seed, r)
			return 0, err
		})
		if err != nil {
			return err
		}
	}
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return err
	}
	runs, err := driveFleet(reqs, time.Duration(o.seconds*float64(time.Second)), r)
	if err != nil {
		return err
	}
	small, large := runs[fleetSizes[0]], runs[fleetSizes[1]]
	runsPC := phaseCount{Name: "fleet-runs", Sent: len(small.walls) + len(large.walls), OK: len(small.walls) + len(large.walls)}
	r.count(runsPC)
	// The medians resist a run the host or the collector slowed; the
	// geometric mean weighs a relative change at either size alike.
	small16, large256 := vsPerS(16, median(small.cpus)), vsPerS(256, median(large.cpus))
	r.add("throughput_per_s", math.Sqrt(small16*large256), "1/s", runsPC.OK,
		"simulated vehicle-seconds per host CPU-second: geometric mean of the two sizes' median runs")
	// One fleet runs at a time, and the window's peak repeats from seed to
	// seed, unlike a server's (see rssPeaks).
	r.add("peak_rss_mb", peakRSS(os.Getpid()), "MiB", 1, "benchmark VmHWM over the window")
	setups.report(r, "requests + warm-up N=16 run")
	r.note("fleet16_vs_per_cpu_s", small16, "1/s", len(small.cpus))
	r.note("fleet256_vs_per_cpu_s", large256, "1/s", len(large.cpus))
	r.note("fleet16_vs_per_s", vsPerS(16, median(small.walls)), "1/s", len(small.walls))
	r.note("fleet256_vs_per_s", vsPerS(256, median(large.walls)), "1/s", len(large.walls))
	return nil
}

// fleetTraceCounts counts lifecycle events by kind.
type fleetTraceCounts [lifecycle.EventControl + 1]uint64

// traceFleet is the traced sim-fleet pass. Per size it alternates an
// untraced run.Pipeline run with a fleet.RunSpec run under a counting
// lifecycle.TracerFunc, so the tracing overhead compares neighbouring
// runs, all of them under one CPU profile, written to dir, and between two
// runtime/metrics readings.
func traceFleet(seed int64, d time.Duration, dir string, r *result) error {
	reqs, err := fleetSetup(seed, r)
	if err != nil {
		return err
	}
	names := []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}
	for i, n := range fleetSizes {
		suffix := fmt.Sprintf("_n%d", n)
		share := fleetSmallShare
		if i > 0 {
			share = 1 - fleetSmallShare
		}
		norm, err := reqs[n].Normalize()
		if err != nil {
			return err
		}
		before := readMetrics(names)
		profPath := filepath.Join(dir, "fleet"+suffix+".pprof")
		prof, err := os.Create(profPath)
		if err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
		deadline := time.Now().Add(time.Duration(share * float64(d)))
		var first fleetTraceCounts
		var walls []float64
		untraced := &fleetRuns{}
		for len(walls) < 2 || time.Now().Before(deadline) {
			if err := untraced.runPipeline(reqs[n], r); err != nil {
				pprof.StopCPUProfile()
				return err
			}
			var counts fleetTraceCounts
			tracer := lifecycle.TracerFunc(func(ev lifecycle.Event) {
				if int(ev.Kind) < len(counts) {
					counts[ev.Kind]++
				}
			})
			start := time.Now()
			res, err := fleet.RunSpec(*norm.Spec, tracer)
			walls = append(walls, ms(time.Since(start)))
			if err != nil {
				pprof.StopCPUProfile()
				return err
			}
			if !reflect.DeepEqual(res.Rows, untraced.rows) {
				r.fail("sim-fleet N=%d: traced report rows differ from the untraced run's", n)
			}
			if len(walls) == 1 {
				first = counts
			} else if counts != first {
				r.fail("sim-fleet N=%d: lifecycle counts %v differ from the first traced run's %v", n, counts, first)
			}
		}
		pprof.StopCPUProfile()
		after := readMetrics(names)
		if err := prof.Close(); err != nil {
			return err
		}
		r.count(phaseCount{Name: fmt.Sprintf("fleet-traced-runs-n%d", n), Sent: 2 * len(walls), OK: 2 * len(walls)})
		vsTotal := float64(n) * fleetDuration * float64(2*len(walls))
		vsRun := float64(n) * fleetDuration
		for k := lifecycle.EventRelease; k <= lifecycle.EventControl; k++ {
			r.add("lifecycle."+k.String()+"_per_vs"+suffix, float64(first[k])/vsRun, "1/vs", len(walls), "")
		}
		if disp := first[lifecycle.EventDispatch]; disp > 0 {
			r.add("fleet.ns_per_dispatch"+suffix, median(untraced.cpus)*1e6/float64(disp), "ns", len(untraced.cpus), "CPU time")
		}
		shares, samples, err := cpuShares(profPath)
		if err != nil {
			return err
		}
		for _, p := range append(append([]string(nil), cpuPackages...), "other") {
			r.add("cpu."+p+"_share"+suffix, shares[p], "ratio", samples, "")
		}
		r.add("runtime.alloc_bytes_per_vs"+suffix, (after[0]-before[0])/vsTotal, "B/vs", len(walls), "")
		r.add("runtime.allocs_per_vs"+suffix, (after[1]-before[1])/vsTotal, "1/vs", len(walls), "")
		if cpu := after[3] - before[3]; cpu > 0 {
			r.add("runtime.gc_cpu_share"+suffix, (after[2]-before[2])/cpu, "ratio", len(walls), "")
		}
		r.add("fleet.traced_ms"+suffix, median(walls), "ms", len(walls), "")
		r.add("fleet.trace_overhead_ms"+suffix, median(walls)-median(untraced.walls), "ms", len(walls), "")
	}
	return nil
}

// readMetrics samples runtime/metrics values as float64.
func readMetrics(names []string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
