package hcperf_test

// Benchmark harness: one benchmark per table and figure of the HCPerf
// evaluation (paper §VII), plus the pinned hot-path suite of internal/perf.
// Each table/figure benchmark regenerates the corresponding experiment end
// to end and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Absolute driving-performance values
// depend on the substrate (see EXPERIMENTS.md); the reported metrics make
// the orderings visible directly in the benchmark output.

import (
	"context"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/perf"
	"hcperf/internal/runner"
	"hcperf/internal/scenario"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(id, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Motivation regenerates the motivation experiment (Fig. 4):
// the red-light scenario under Apollo scheduling, ending in a collision.
func BenchmarkFig4Motivation(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5ToySchedule regenerates the Fig. 5 toy schedule comparison.
func BenchmarkFig5ToySchedule(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig12ExecTimes regenerates the execution-time characterisation.
func BenchmarkFig12ExecTimes(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13CarFollowing regenerates the car-following time series for
// all five schemes (Fig. 13(a)-(d)).
func BenchmarkFig13CarFollowing(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkTable2SpeedRMS regenerates Table II and reports each scheme's
// RMS speed tracking error as a custom metric.
func BenchmarkTable2SpeedRMS(b *testing.B) {
	var results map[scenario.Scheme]*scenario.CarFollowingResult
	for i := 0; i < b.N; i++ {
		results = make(map[scenario.Scheme]*scenario.CarFollowingResult)
		for _, s := range scenario.AllSchemes() {
			r, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Scheme: s, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			results[s] = r
		}
	}
	for s, r := range results {
		b.ReportMetric(r.SpeedErrRMS, "speedRMS_"+s.String())
	}
}

// BenchmarkTable3DistanceRMS regenerates Table III.
func BenchmarkTable3DistanceRMS(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig14LaneKeeping regenerates the lane-keeping offset series.
func BenchmarkFig14LaneKeeping(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkTable4LateralRMS regenerates Table IV and reports each scheme's
// RMS lateral offset as a custom metric.
func BenchmarkTable4LateralRMS(b *testing.B) {
	offsets := make(map[scenario.Scheme]float64)
	for i := 0; i < b.N; i++ {
		for _, s := range scenario.AllSchemes() {
			r, err := scenario.RunLaneKeeping(scenario.LaneKeepingConfig{Scheme: s, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			offsets[s] = r.OffsetRMS
		}
	}
	for s, v := range offsets {
		b.ReportMetric(v*1000, "offsetRMSmm_"+s.String())
	}
}

// BenchmarkFig15Hardware regenerates the hardware-testbed emulation series.
func BenchmarkFig15Hardware(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkTable5HardwareSpeedRMS regenerates Table V.
func BenchmarkTable5HardwareSpeedRMS(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6HardwareDistRMS regenerates Table VI.
func BenchmarkTable6HardwareDistRMS(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig16DrivingProcess regenerates the jam driving-process overview.
func BenchmarkFig16DrivingProcess(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17Responsiveness regenerates the traffic-jam study.
func BenchmarkFig17Responsiveness(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18Ablation regenerates the internal-vs-full ablation.
func BenchmarkFig18Ablation(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkOverheadCoordinatorStep measures the coordinator's own per-step
// cost (§VII-E) directly: one full car-following run per iteration, with
// the mean wall-clock cost per coordination step reported as a metric.
func BenchmarkOverheadCoordinatorStep(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{
			Scheme: scenario.SchemeHCPerf, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		oh := r.Overhead
		mean = oh.Mean()
	}
	b.ReportMetric(mean*1e6, "µs/coord-step")
}

// --- Ablation benchmarks (design-choice studies beyond the paper) ---

// BenchmarkAblateGammaCap sweeps the γ cap (internal coordinator only).
func BenchmarkAblateGammaCap(b *testing.B) { benchExperiment(b, "ablate-gammacap") }

// BenchmarkAblateLatencyGuards ablates the e2e deadline and input-age bound.
func BenchmarkAblateLatencyGuards(b *testing.B) { benchExperiment(b, "ablate-e2e") }

// BenchmarkAblateDataAge toggles the input-age validity bound per scheme.
func BenchmarkAblateDataAge(b *testing.B) { benchExperiment(b, "ablate-dataage") }

// BenchmarkSweepProcs sweeps the processor count for EDF vs HCPerf.
func BenchmarkSweepProcs(b *testing.B) { benchExperiment(b, "sweep-procs") }

// BenchmarkExtAEB runs the emergency-braking extension.
func BenchmarkExtAEB(b *testing.B) { benchExperiment(b, "ext-aeb") }

// BenchmarkExtDualControl runs the dual-sink control extension.
func BenchmarkExtDualControl(b *testing.B) { benchExperiment(b, "ext-dual") }

// --- Parallel runner benchmarks ---

// benchSweep runs the five-scheme car-following sweep (the workhorse unit
// behind Fig. 13 and Tables II/III) through the worker-pool runner with the
// given worker count; 0 selects GOMAXPROCS. BenchmarkSweepSerial vs
// BenchmarkSweepParallel measures the end-to-end speedup of `-parallel`;
// the quotient of their ns/op is the number EXPERIMENTS.md records.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	schemes := scenario.AllSchemes()
	for i := 0; i < b.N; i++ {
		results, err := runner.Map(context.Background(), workers, schemes,
			func(_ context.Context, s scenario.Scheme) (*scenario.CarFollowingResult, error) {
				return scenario.RunCarFollowing(scenario.CarFollowingConfig{Scheme: s, Seed: 1})
			})
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range results {
			if r == nil {
				b.Fatalf("scheme %v returned no result", schemes[j])
			}
		}
	}
}

// BenchmarkSweepSerial is the single-worker reference sweep.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel fans the same sweep out across GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSuiteSerial and BenchmarkSuiteParallel do the same at suite
// granularity: all registered experiments, with sweep parallelism matching
// the outer fan-out (exactly what `hcperf-bench -parallel N` runs).
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAll(context.Background(), experiment.IDs(), 1, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial runs every experiment on one worker.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel runs every experiment across GOMAXPROCS workers.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// --- Hot-path micro-benchmarks ---

// BenchmarkPerfSuite runs every entry of the pinned hot-path suite
// (internal/perf.Suite, the definitions BENCH_baseline.json and
// `make bench-check` gate) as a sub-benchmark, so the suite has one
// definition per benchmark:
//
//	go test -bench='PerfSuite/MFCStep' -run='^$' .
func BenchmarkPerfSuite(b *testing.B) {
	for _, bench := range perf.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			bench.Fn(b)
		})
	}
}
