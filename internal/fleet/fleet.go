// Package fleet scales the single-vehicle HCPerf closed loop to a fleet:
// N vehicles (hundreds to thousands), each running its own task graph,
// engine and coordinator on the existing lifecycle kernel, one vehicle
// after another in index order.
//
// Determinism at fleet scale rests on three rules:
//
//   - One vehicle on the queue at a time. A vehicle's events are the only
//     ones on the fleet's simtime.EventQueue, where events at the same
//     instant fire in the order they were scheduled. Each vehicle runs to
//     the end and is dropped, and the queue reset, before the next is
//     attached, so its working set stays in cache for its whole run.
//     Every result is the one a queue shared by all vehicles at once
//     gives, bit for bit: a vehicle reads no other vehicle's state, except
//     that a platoon follower reads its predecessor's, and a replay ticker
//     created before the follower's loop installs that state at the
//     instants, and in the order among the follower's events, that the
//     predecessor's own dynamics steps held on the shared queue
//     (scenario.CarFollowingRun.Replay).
//   - Partitioned randomness. Each vehicle's engine and sensing noise are
//     seeded from its own per-vehicle seed — either pinned explicitly or
//     derived from the fleet seed with a splitmix64 partition
//     (VehicleSeed) — so no vehicle's random stream depends on N or on
//     any other vehicle's consumption.
//   - Canonical aggregation. Fleet-level reductions (means, percentiles)
//     sort their inputs before any floating-point arithmetic, so the
//     aggregate — and therefore the report digest — is invariant under
//     vehicle permutation.
//
// Shared-world coupling is optional: FleetCouplingNone runs N independent
// vehicles over the common obstacle field, while FleetCouplingPlatoon
// chains them — vehicle i perceives vehicle i-1's simulated motion as its
// lead, and a hard-braking predecessor inflates its follower's obstacle
// count (its braking literally becomes the follower's obstacles), which
// feeds back into the follower's sensor-fusion execution time exactly like
// any other scene complexity change.
package fleet

import (
	"fmt"
	"sort"

	"hcperf/internal/lifecycle"
	"hcperf/internal/scenario"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
)

// Defaults for the platoon's brake-to-obstacle coupling: a predecessor
// decelerating harder than DefaultBrakeThreshold adds
// DefaultBrakeObstacles to its follower's scene.
const (
	DefaultBrakeThreshold = 2.5
	DefaultBrakeObstacles = 12
)

// Config parameterises one fleet run.
type Config struct {
	// Base is the per-vehicle scenario template; its Scheme must be set,
	// every other field defaults to the paper's car-following setup. The
	// Seed field is ignored: per-vehicle seeds come from Seed /
	// VehicleSeeds.
	Base scenario.CarFollowingConfig
	// N is the number of vehicles (>= 1).
	N int
	// Coupling is scenario.FleetCouplingNone (default) or
	// scenario.FleetCouplingPlatoon.
	Coupling string
	// Spacing is the platoon's initial inter-vehicle gap in metres
	// (0 = the control law's desired gap at the initial speed).
	Spacing float64
	// BrakeThreshold is the predecessor deceleration magnitude (m/s^2)
	// that triggers the brake-to-obstacle coupling (0 = default).
	BrakeThreshold float64
	// BrakeObstacles is the obstacle bump a braking predecessor adds to
	// its follower's scene (0 = default).
	BrakeObstacles int
	// Seed is the fleet seed from which per-vehicle seeds are derived
	// when VehicleSeeds is empty.
	Seed int64
	// VehicleSeeds pins each vehicle's seed explicitly (length must be
	// N when non-empty).
	VehicleSeeds []int64
	// Tracer optionally receives every vehicle's lifecycle events:
	// vehicle 0's whole stream, then vehicle 1's, and so on, each in its
	// own virtual-time order.
	Tracer lifecycle.Tracer
}

// VehicleSeed derives vehicle i's seed from the fleet seed with a
// splitmix64 step: a well-mixed 64-bit partition, so per-vehicle streams
// are decorrelated and independent of N. The derivation depends only on
// (fleetSeed, i) — adding or removing other vehicles never changes an
// existing vehicle's randomness.
func VehicleSeed(fleetSeed int64, i int) int64 {
	z := uint64(fleetSeed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// VehicleStats is one vehicle's per-run outcome.
type VehicleStats struct {
	// Index is the vehicle's position in the fleet (platoon order).
	Index int
	// Seed is the vehicle's own seed.
	Seed int64
	// SpeedErrRMS and DistErrRMS are the vehicle's RMS tracking errors.
	SpeedErrRMS, DistErrRMS float64
	// MissRatio is the vehicle's overall deadline-miss ratio.
	MissRatio float64
	// Throughput is control commands per second.
	Throughput float64
	// MeanResponse is the mean control-command response time (s).
	MeanResponse float64
	// Collision reports a gap <= 0 event.
	Collision bool
}

// Distribution summarises one per-vehicle metric across the fleet.
type Distribution struct {
	Mean, P50, P95, P99, Max float64
}

// distribution reduces xs canonically: the samples are sorted before any
// floating-point arithmetic, so the result is exactly invariant under
// permutation of the input order (vehicle relabeling).
func distribution(xs []float64) Distribution {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	pct := func(p float64) float64 {
		rank := p / 100 * float64(len(s)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return Distribution{
		Mean: sum / float64(len(s)),
		P50:  pct(50),
		P95:  pct(95),
		P99:  pct(99),
		Max:  s[len(s)-1],
	}
}

// Result aggregates one fleet run.
type Result struct {
	// N, Coupling and Duration echo the effective configuration.
	N        int
	Coupling string
	Duration float64
	// Vehicles holds per-vehicle outcomes in fleet (platoon) order.
	Vehicles []VehicleStats
	// SpeedRMS, DistRMS and Miss are the fleet-wide distributions of
	// the per-vehicle metrics.
	SpeedRMS, DistRMS, Miss Distribution
	// Collisions counts vehicles that collided.
	Collisions int
	// Rec holds the fleet-level aggregate series (fleet_err_mean,
	// fleet_err_p95, fleet_err_max, fleet_gap_min): each vehicle is
	// sampled once per summary period, by a sampler created after its own
	// loop, and the samples are reduced instant by instant after the last
	// vehicle has run.
	Rec *trace.Recorder
}

// Run executes one fleet run to completion and aggregates the results.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("fleet: N %d < 1", cfg.N)
	}
	coupling := cfg.Coupling
	if coupling == "" {
		coupling = scenario.FleetCouplingNone
	}
	switch coupling {
	case scenario.FleetCouplingNone, scenario.FleetCouplingPlatoon:
	default:
		return nil, fmt.Errorf("fleet: unknown coupling %q", coupling)
	}
	if cfg.Spacing < 0 {
		return nil, fmt.Errorf("fleet: negative spacing %v", cfg.Spacing)
	}
	if len(cfg.VehicleSeeds) > 0 && len(cfg.VehicleSeeds) != cfg.N {
		return nil, fmt.Errorf("fleet: %d vehicle seeds for %d vehicles", len(cfg.VehicleSeeds), cfg.N)
	}
	brakeThreshold := cfg.BrakeThreshold
	if brakeThreshold == 0 {
		brakeThreshold = DefaultBrakeThreshold
	}
	brakeObstacles := cfg.BrakeObstacles
	if brakeObstacles == 0 {
		brakeObstacles = DefaultBrakeObstacles
	}

	// The shared obstacle field every vehicle drives through; coupling
	// terms stack on top per follower.
	shared := cfg.Base.Obstacles
	if shared == nil {
		shared = scenario.DefaultCarFollowingObstacles
	}
	samplePeriod := 1.0
	if cfg.Base.SampleRate > 0 {
		samplePeriod = 1 / cfg.Base.SampleRate
	}

	res := &Result{
		N:        cfg.N,
		Coupling: coupling,
		Vehicles: make([]VehicleStats, cfg.N),
	}
	speed := make([]float64, cfg.N)
	dist := make([]float64, cfg.N)
	miss := make([]float64, cfg.N)
	// The sample instants vehicle 0's sampler fired at, and every
	// vehicle's tracking error and gap at them, vehicle after vehicle.
	var times, errs, gaps []float64
	var pred *scenario.CarFollowingRun // the finished vehicle i-1 of a platoon
	// One queue carries every vehicle: the reset drops the previous
	// vehicle's pending ticks unfired and restarts the clock.
	q := simtime.NewEventQueue()
	for i := 0; i < cfg.N; i++ {
		seed := VehicleSeed(cfg.Seed, i)
		if len(cfg.VehicleSeeds) > 0 {
			seed = cfg.VehicleSeeds[i]
		}
		q.Reset()
		vcfg := cfg.Base
		vcfg.Seed = seed
		vcfg.Obstacles = shared
		vcfg.Tracer = cfg.Tracer
		if pred != nil {
			// The replay ticker goes on q before the follower's loop, so
			// its ticks take the place among the follower's events that
			// the predecessor's dynamics ticks take on one queue shared by
			// every vehicle.
			lead, err := pred.Replay(q)
			if err != nil {
				return nil, fmt.Errorf("fleet: vehicle %d: %w", i, err)
			}
			pred = nil // lead keeps its history rows; the rest is dropped
			vcfg.LeadProfile = lead
			vcfg.InitGap = cfg.Spacing
			vcfg.Obstacles = func(t float64) int {
				n := shared(t)
				if lead.Accel() <= -brakeThreshold {
					n += brakeObstacles
				}
				return n
			}
		}
		// A fleet reads only each vehicle's stats, so no vehicle records
		// series.
		r, err := scenario.AttachCarFollowing(q, vcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: vehicle %d: %w", i, err)
		}
		if i == 0 {
			res.Duration = r.Duration()
			ns := int(res.Duration/samplePeriod) + 1
			times = make([]float64, 0, ns)
			errs = make([]float64, 0, ns*cfg.N)
			gaps = make([]float64, 0, ns*cfg.N)
		}
		// The vehicle's sampler is created after its loop, so at each
		// sample instant it observes the vehicle's post-step state.
		if err := q.NewTicker(simtime.Time(samplePeriod), simtime.Duration(samplePeriod), func(now simtime.Time) {
			if i == 0 {
				times = append(times, float64(now))
			}
			errs = append(errs, r.TrackingError(now))
			gaps = append(gaps, r.Gap())
		}); err != nil {
			return nil, fmt.Errorf("fleet: vehicle %d: sampler: %w", i, err)
		}
		q.RunUntil(simtime.Time(res.Duration))

		out := r.Finish()
		res.Vehicles[i] = VehicleStats{
			Index:        i,
			Seed:         seed,
			SpeedErrRMS:  out.SpeedErrRMS,
			DistErrRMS:   out.DistErrRMS,
			MissRatio:    out.Miss.MeanRatio(),
			Throughput:   out.Throughput,
			MeanResponse: out.MeanResponse,
			Collision:    out.Collision,
		}
		speed[i], dist[i], miss[i] = out.SpeedErrRMS, out.DistErrRMS, res.Vehicles[i].MissRatio
		if out.Collision {
			res.Collisions++
		}
		if coupling == scenario.FleetCouplingPlatoon {
			pred = r
		}
	}
	res.SpeedRMS = distribution(speed)
	res.DistRMS = distribution(dist)
	res.Miss = distribution(miss)
	res.Rec = aggregate(times, errs, gaps, cfg.N)
	return res, nil
}

// aggregate reduces the fleet's samples to its aggregate series. errs and
// gaps hold each vehicle's samples at the instants in times, vehicle after
// vehicle. At each instant the gap minimum starts from vehicle 0 and runs
// in index order, and the errors are sorted before any floating-point
// arithmetic, so the aggregates are permutation-invariant bit for bit.
func aggregate(times, errs, gaps []float64, n int) *trace.Recorder {
	rec := trace.NewRecorder()
	ns := len(times)
	col := make([]float64, n)
	for j, t := range times {
		gapMin := gaps[j]
		for i := range col {
			col[i] = errs[i*ns+j]
			if g := gaps[i*ns+j]; g < gapMin {
				gapMin = g
			}
		}
		sort.Float64s(col)
		sum := 0.0
		for _, e := range col {
			sum += e
		}
		d := distribution(col)
		recAdd(rec, "fleet_err_mean", t, sum/float64(n))
		recAdd(rec, "fleet_err_p95", t, d.P95)
		recAdd(rec, "fleet_err_max", t, d.Max)
		recAdd(rec, "fleet_gap_min", t, gapMin)
	}
	return rec
}

// recAdd appends to a recorder series; the sample instants only ever
// advance with simulation time, so failures indicate harness bugs.
func recAdd(rec *trace.Recorder, name string, t, v float64) {
	if err := rec.Add(name, t, v); err != nil {
		panic(fmt.Sprintf("fleet: record %s: %v", name, err))
	}
}
