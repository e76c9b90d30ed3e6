package experiment

import (
	"fmt"

	"hcperf/internal/scenario"
	"hcperf/internal/simtime"
)

// The experiments in this file go beyond the paper: they ablate the design
// choices DESIGN.md calls out (the γ cap, the explicit end-to-end deadline,
// the input-age validity bound, and the processor count) on the
// car-following workload. They are registered alongside the paper
// experiments and have matching benchmarks in bench_test.go.

func init() {
	register("ablate-gammacap", "Ablation: Dynamic scheduler γ cap sweep",
		"sweeps the γ cap on car following (internal coordinator only): cap → 0 is least-slack, large caps saturate into static priority", AblateGammaCap)
	register("ablate-e2e", "Ablation: explicit end-to-end deadline",
		"car following with and without the explicit end-to-end deadline constraint", AblateE2E)
	register("ablate-dataage", "Ablation: input-age validity bound",
		"sweeps the maximum input data age on car following", AblateDataAge)
	register("sweep-procs", "Sweep: processor count",
		"car following across processor counts, locating the knee of the miss-ratio curve", SweepProcs)
	register("ext-aeb", "Extension: automatic emergency braking",
		"AEB episode beyond the paper: deadline misses translate into stopping-distance loss", ExtAEB)
	register("ext-dual", "Extension: dual-control combined graph",
		"combined longitudinal+lateral control on one task graph", ExtDualControl)
}

// AblateGammaCap sweeps the Dynamic scheduler's γ cap on car following
// (internal coordinator only, isolating the γ mechanism): cap → 0 is
// least-slack scheduling, large caps saturate into static-priority mode.
func AblateGammaCap(seed int64, workers int) (*Report, error) {
	caps := []float64{1e-6, 0.005, 0.02, 0.1}
	results, err := sweep(workers, caps, func(cap float64) (*scenario.CarFollowingResult, error) {
		return scenario.RunCarFollowing(scenario.CarFollowingConfig{
			Scheme:   scenario.SchemeHCPerfInternal,
			Seed:     seed,
			GammaCap: cap,
		})
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(caps))
	for i, cap := range caps {
		r := results[i]
		rows = append(rows, []string{
			fmt.Sprintf("%g", cap),
			fmtF(r.SpeedErrRMS, 3),
			fmtF(r.Miss.MeanRatio(), 3),
			fmtF(r.EngineStats.EndToEnd.Mean()*1000, 0),
		})
	}
	return &Report{
		ID:     "ablate-gammacap",
		Title:  "Ablation: γ cap sweep (internal coordinator only, car following)",
		Header: []string{"γ cap", "speed RMS (m/s)", "miss ratio", "e2e (ms)"},
		Rows:   rows,
		Notes: []string{
			"γ cap → 0 degenerates to least-slack dispatch; the default 0.02 lets the priority term dominate when the tracking error demands it",
		},
	}, nil
}

// AblateE2E ablates the two latency guards — the control task's explicit
// end-to-end deadline and the input-age validity bound — individually and
// together, for HCPerf. Misses are the rate adapter's only feedback signal,
// so removing both guards leaves it blind to latency.
func AblateE2E(seed int64, workers int) (*Report, error) {
	type variant struct {
		label      string
		disableE2E bool
		age        simtime.Duration
	}
	variants := []variant{
		{label: "both guards (default)"},
		{label: "no e2e deadline", disableE2E: true},
		{label: "no input-age bound", age: -1},
		{label: "neither guard", disableE2E: true, age: -1},
	}
	results, err := sweep(workers, variants, func(v variant) (*scenario.CarFollowingResult, error) {
		return scenario.RunCarFollowing(scenario.CarFollowingConfig{
			Scheme:     scenario.SchemeHCPerf,
			Seed:       seed,
			DisableE2E: v.disableE2E,
			MaxDataAge: v.age,
		})
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(variants))
	for i, v := range variants {
		r := results[i]
		rows = append(rows, []string{
			v.label,
			fmtF(r.SpeedErrRMS, 3),
			fmtF(r.Miss.MeanRatio(), 3),
			fmtF(r.EngineStats.EndToEnd.Mean()*1000, 0),
			fmtF(r.Throughput, 1),
		})
	}
	return &Report{
		ID:     "ablate-e2e",
		Title:  "Ablation: latency guards (e2e deadline, input-age bound) under HCPerf",
		Header: []string{"variant", "speed RMS (m/s)", "miss ratio", "e2e (ms)", "cmds/s"},
		Rows:   rows,
		Notes: []string{
			"at the calibrated operating point the per-task deadlines and path budgets already bound latency, so removing the explicit guards barely moves HCPerf; the guards matter for policies that starve auxiliary tasks (see ablate-dataage) and during transients",
		},
	}, nil
}

// AblateDataAge toggles the input-age validity bound: without it, starving
// auxiliary tasks is free and static-priority policies look artificially
// good (they shed exactly the work the metric ignores).
func AblateDataAge(seed int64, workers int) (*Report, error) {
	type variant struct {
		label string
		age   simtime.Duration
	}
	variants := []variant{
		{label: "validity 220 ms (default)", age: 0},
		{label: "validity disabled", age: -1},
	}
	type cell struct {
		v variant
		s scenario.Scheme
	}
	var grid []cell
	for _, v := range variants {
		for _, s := range []scenario.Scheme{scenario.SchemeHPF, scenario.SchemeHCPerf} {
			grid = append(grid, cell{v: v, s: s})
		}
	}
	results, err := sweep(workers, grid, func(c cell) (*scenario.CarFollowingResult, error) {
		return scenario.RunCarFollowing(scenario.CarFollowingConfig{
			Scheme:     c.s,
			Seed:       seed,
			MaxDataAge: c.v.age,
		})
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(grid))
	for i, c := range grid {
		r := results[i]
		rows = append(rows, []string{
			c.v.label, c.s.String(),
			fmtF(r.SpeedErrRMS, 3),
			fmtF(r.Miss.MeanRatio(), 3),
			fmtF(r.Throughput, 1),
		})
	}
	return &Report{
		ID:     "ablate-dataage",
		Title:  "Ablation: input-age validity bound (MaxDataAge)",
		Header: []string{"variant", "scheme", "speed RMS (m/s)", "miss ratio", "cmds/s"},
		Rows:   rows,
		Notes: []string{
			"the paper requires the whole sensing-to-control chain to complete on time for a valid command; MaxDataAge encodes that — disabling it lets HPF starve auxiliary perception invisibly",
		},
	}, nil
}

// SweepProcs sweeps the processor count for HCPerf and EDF: the framework's
// advantage is largest when the pool is scarce.
func SweepProcs(seed int64, workers int) (*Report, error) {
	type cell struct {
		m int
		s scenario.Scheme
	}
	var grid []cell
	for _, m := range []int{1, 2, 4} {
		for _, s := range []scenario.Scheme{scenario.SchemeEDF, scenario.SchemeHCPerf} {
			grid = append(grid, cell{m: m, s: s})
		}
	}
	results, err := sweep(workers, grid, func(c cell) (*scenario.CarFollowingResult, error) {
		return scenario.RunCarFollowing(scenario.CarFollowingConfig{
			Scheme:   c.s,
			Seed:     seed,
			NumProcs: c.m,
		})
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(grid))
	for i, c := range grid {
		r := results[i]
		rows = append(rows, []string{
			fmt.Sprintf("M=%d", c.m), c.s.String(),
			fmtF(r.SpeedErrRMS, 3),
			fmtF(r.Miss.MeanRatio(), 3),
			fmtF(r.Throughput, 1),
		})
	}
	return &Report{
		ID:     "sweep-procs",
		Title:  "Sweep: processor count (car following, EDF vs HCPerf)",
		Header: []string{"processors", "scheme", "speed RMS (m/s)", "miss ratio", "cmds/s"},
		Rows:   rows,
		Notes: []string{
			"on M=1 the pipeline is structurally overloaded for both schemes; the coordination gap is widest around the M=2 regime the paper evaluates",
		},
	}, nil
}

// ExtAEB runs the emergency-braking extension: the lead panic-stops at
// 7 m/s² while the scene complexity spikes; the minimum gap is the
// stopping margin each scheduling scheme preserves.
func ExtAEB(seed int64, workers int) (*Report, error) {
	const runs = 8 // single-event margins are command-phase sensitive
	// Fan out the full scheme × seed grid: all 40 runs are independent, so
	// the pool chews through them in any order while the aggregation below
	// walks the grid in input order.
	schemes := scenario.AllSchemes()
	var grid []scenario.CarFollowingConfig
	for _, s := range schemes {
		for k := int64(0); k < runs; k++ {
			cfg, err := scenario.AEBCarFollowingConfig(s, seed+k)
			if err != nil {
				return nil, err
			}
			grid = append(grid, cfg)
		}
	}
	results, err := sweep(workers, grid, scenario.RunCarFollowing)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(schemes))
	for si, s := range schemes {
		var sumGap, worstGap, sumE2E float64
		collisions := 0
		for k := 0; k < runs; k++ {
			r := results[si*runs+k]
			minGap := r.Rec.Series("gap").Samples[0].V
			for _, p := range r.Rec.Series("gap").Samples {
				if p.V < minGap {
					minGap = p.V
				}
			}
			sumGap += minGap
			if k == 0 || minGap < worstGap {
				worstGap = minGap
			}
			sumE2E += r.EngineStats.EndToEnd.Mean()
			if r.Collision {
				collisions++
			}
		}
		rows = append(rows, []string{
			s.String(),
			fmtF(sumGap/runs, 2),
			fmtF(worstGap, 2),
			fmt.Sprintf("%d/%d", collisions, runs),
			fmtF(sumE2E/runs*1000, 0),
		})
	}
	return &Report{
		ID:     "ext-aeb",
		Title:  "Extension: emergency braking — stopping margin per scheme",
		Header: []string{"scheme", "mean min gap (m)", "worst min gap (m)", "collisions", "e2e (ms)"},
		Rows:   rows,
		Notes: []string{
			"an extension beyond the paper's evaluation, averaged over 8 seeds: the lead panic-stops at 8 m/s² while the scene floods",
			"finding: with a competent local brake controller the stopping margin is dominated by plant dynamics — the schemes' ~50 ms end-to-end latency spread moves the margin by well under a metre, so coordination matters for sustained tracking (Tables II-VI) more than for one-shot reactions",
		},
	}, nil
}

// ExtDualControl runs the dual-sink extension: simultaneous car following
// and lane keeping on the 24-task graph with separate longitudinal and
// lateral control tasks.
func ExtDualControl(seed int64, workers int) (*Report, error) {
	schemes := scenario.AllSchemes()
	results, err := sweep(workers, schemes, func(s scenario.Scheme) (*scenario.CombinedResult, error) {
		return scenario.RunCombined(scenario.CombinedConfig{Scheme: s, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(schemes))
	for i, s := range schemes {
		r := results[i]
		rows = append(rows, []string{
			s.String(),
			fmtF(r.SpeedErrRMS, 3),
			fmtF(r.OffsetRMS, 4),
			fmt.Sprintf("%d/%d", r.LonCommands, r.LatCommands),
			fmtF(r.Miss.MeanRatio(), 3),
		})
	}
	return &Report{
		ID:     "ext-dual",
		Title:  "Extension: dual-control graph — simultaneous car following and lane keeping",
		Header: []string{"scheme", "speed RMS (m/s)", "offset RMS (m)", "lon/lat cmds", "miss ratio"},
		Rows:   rows,
		Notes: []string{
			"the 24-task variant splits control into longitudinal and lateral sinks; one coordinator arbitrates both loops with a max-of-normalised-errors tracking signal",
		},
	}, nil
}
