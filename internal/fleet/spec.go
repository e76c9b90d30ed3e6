package fleet

import (
	"fmt"
	"sort"

	"hcperf/internal/lifecycle"
	"hcperf/internal/scenario"
)

// perVehicleRowCap bounds the per-vehicle rows in a fleet report. Above
// the cap an explicit "omitted" row records the truncation — a report must
// never silently drop vehicles.
const perVehicleRowCap = 32

// RunSpec executes a declarative spec, fleet-aware: a spec without a fleet
// block runs the existing single-vehicle path unchanged, while a fleet
// block fans the spec's car-following scenario out to N vehicles, one after
// another on one event queue. Either way the result is a
// scenario.SpecResult, so fleet runs flow through the CLI, the service,
// the content-addressed cache and golden-digest pinning exactly like
// single-vehicle runs.
func RunSpec(spec scenario.Spec, tracer lifecycle.Tracer) (*scenario.SpecResult, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if norm.Fleet == nil {
		return scenario.RunSpec(norm, tracer)
	}
	base, err := scenario.CarFollowingConfigFromSpec(norm)
	if err != nil {
		return nil, err
	}
	base.Tracer = nil // the fleet runner stamps the tracer per vehicle
	f := norm.Fleet
	res, err := Run(Config{
		Base:           base,
		N:              f.N,
		Coupling:       f.Coupling,
		Spacing:        f.Spacing,
		BrakeThreshold: f.BrakeThreshold,
		BrakeObstacles: f.BrakeObstacles,
		Seed:           norm.Seed,
		VehicleSeeds:   f.VehicleSeeds,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	scheme, err := scenario.ParseScheme(norm.Scheme)
	if err != nil {
		return nil, err
	}
	return &scenario.SpecResult{
		Spec: norm,
		Title: fmt.Sprintf("fleet of %d (%s coupling) %s under %v (seed %d)",
			res.N, res.Coupling, norm.Scenario, scheme, norm.Seed),
		Rows: Rows(res),
		Rec:  res.Rec,
	}, nil
}

// Rows renders a fleet result as canonical (quantity, value) report rows:
// fleet-wide distributions first, then per-vehicle rows. Per-vehicle rows
// are sorted by content for uncoupled fleets — vehicle identity is the
// seed, so the listing is invariant under vehicle permutation — and kept
// in platoon order for coupled fleets, where position is meaningful.
func Rows(res *Result) [][]string {
	rows := [][]string{
		{"fleet size", fmt.Sprintf("%d", res.N)},
		{"coupling", res.Coupling},
	}
	rows = append(rows, distRows("speed RMS", "m/s", res.SpeedRMS)...)
	rows = append(rows, distRows("distance RMS", "m", res.DistRMS)...)
	rows = append(rows, distRows("miss ratio", "", res.Miss)...)
	rows = append(rows, []string{"collisions", fmt.Sprintf("%d", res.Collisions)})

	if res.N > perVehicleRowCap {
		rows = append(rows, []string{"per-vehicle rows",
			fmt.Sprintf("omitted (%d vehicles > %d)", res.N, perVehicleRowCap)})
		return rows
	}
	per := make([][]string, 0, res.N)
	for _, v := range res.Vehicles {
		key := fmt.Sprintf("vehicle seed %d", v.Seed)
		if res.Coupling == scenario.FleetCouplingPlatoon {
			key = fmt.Sprintf("vehicle %d (seed %d)", v.Index, v.Seed)
		}
		per = append(per, []string{key, fmt.Sprintf(
			"speedRMS=%.4f distRMS=%.4f miss=%.4f resp=%.1fms collision=%t",
			v.SpeedErrRMS, v.DistErrRMS, v.MissRatio, v.MeanResponse*1000, v.Collision)})
	}
	if res.Coupling != scenario.FleetCouplingPlatoon {
		sort.Slice(per, func(i, j int) bool {
			if per[i][0] != per[j][0] {
				return per[i][0] < per[j][0]
			}
			return per[i][1] < per[j][1]
		})
	}
	return append(rows, per...)
}

// distRows renders one fleet-wide distribution as five report rows.
func distRows(label, unit string, d Distribution) [][]string {
	if unit != "" {
		unit = " (" + unit + ")"
	}
	return [][]string{
		{label + " mean" + unit, fmt.Sprintf("%.4f", d.Mean)},
		{label + " p50" + unit, fmt.Sprintf("%.4f", d.P50)},
		{label + " p95" + unit, fmt.Sprintf("%.4f", d.P95)},
		{label + " p99" + unit, fmt.Sprintf("%.4f", d.P99)},
		{label + " max" + unit, fmt.Sprintf("%.4f", d.Max)},
	}
}
