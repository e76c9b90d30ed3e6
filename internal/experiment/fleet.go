package experiment

import (
	"fmt"

	"hcperf/internal/fleet"
	"hcperf/internal/scenario"
)

// This experiment extends the paper's single-vehicle evaluation to fleet
// scale: the same HCPerf-scheduled car-following loop replicated across N
// vehicles, one after another on one event queue, uncoupled and as a
// platoon whose lead-vehicle braking inflates follower obstacle counts.
// The paper's claims are per-vehicle; what matters operationally is the
// fleet tail, which the platoon's coupled load spikes stress directly.

func init() {
	register("ext-fleet", "Extension: fleet-scale platoon",
		"24-vehicle fleet under HCPerf, uncoupled vs. platoon-coupled: fleet-wide miss-ratio and tracking-error tails", ExtFleet)
}

// ExtFleet runs the same 24-vehicle car-following fleet twice — once
// uncoupled (N independent vehicles over the shared obstacle field) and
// once platoon-coupled — and reports the fleet-wide distribution tails.
// The attached series is the platoon run's fleet-level aggregate record.
func ExtFleet(seed int64, _ int) (*Report, error) {
	couplings := []string{"none", "platoon"}
	rows := make([][]string, 0, len(couplings))
	var last *fleet.Result
	for _, coupling := range couplings {
		res, err := fleet.Run(fleet.Config{
			Base:     scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 30}},
			N:        24,
			Coupling: coupling,
			Spacing:  18,
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		// The platoon's signature failure mode is string instability:
		// latency-amplified oscillations grow down the chain until the
		// gap closes. The depth of the first colliding vehicle marks how
		// far the amplification stays within the 18 m spacing budget.
		firstCollision := "-"
		for _, v := range res.Vehicles {
			if v.Collision {
				firstCollision = fmt.Sprintf("%d", v.Index)
				break
			}
		}
		rows = append(rows, []string{
			coupling,
			fmtF(res.Miss.P50, 4),
			fmtF(res.Miss.P95, 4),
			fmtF(res.Miss.P99, 4),
			fmtF(res.DistRMS.P95, 3),
			fmtF(res.DistRMS.Max, 3),
			fmt.Sprintf("%d", res.Collisions),
			firstCollision,
		})
		last = res
	}
	return &Report{
		ID:     "ext-fleet",
		Title:  "Extension: 24-vehicle fleet, uncoupled vs. platoon (HCPerf)",
		Header: []string{"coupling", "miss p50", "miss p95", "miss p99", "dist RMS p95 (m)", "dist RMS max (m)", "collisions", "first collision depth"},
		Rows:   rows,
		Series: last.Rec,
		Notes: []string{
			"platoon coupling: each follower tracks its predecessor's simulated speed; predecessor braking beyond 2.5 m/s² adds 12 obstacles to the follower's scene",
			"the sine lead brakes at up to 4.5 m/s², so the brake→obstacle coupling fires every cycle: perception load spikes exactly when followers need fresh data, and the latency-amplified oscillation (classic string instability) grows down the chain until deep vehicles collide",
			"distributions are over per-vehicle statistics, aggregated in canonical (sorted) order for permutation-invariant digests",
		},
	}, nil
}
