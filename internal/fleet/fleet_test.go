// Fleet determinism and metamorphic battery. The tests live in an external
// test package so they can digest fleet runs through experiment.Report —
// the same digest the cache and the golden pins use — without creating an
// import cycle (fleet must not import experiment).
package fleet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hcperf/examples/specs"
	"hcperf/internal/experiment"
	"hcperf/internal/fleet"
	"hcperf/internal/lifecycle"
	"hcperf/internal/runner"
	"hcperf/internal/scenario"
)

// reportOf wraps a spec result exactly the way the service does, so test
// digests measure the same canonical serialisation production traffic is
// cached and pinned under.
func reportOf(r *scenario.SpecResult) *experiment.Report {
	return &experiment.Report{
		ID:     "fleet-test",
		Title:  r.Title,
		Header: []string{"quantity", "value"},
		Rows:   r.Rows,
		Series: r.Rec,
	}
}

func specDigest(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	r, err := fleet.RunSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := reportOf(r).Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// platoonSpec is the battery's standard coupled fleet: small enough to run
// in milliseconds, coupled enough to exercise every fleet mechanism.
func platoonSpec(n int, seed int64) scenario.Spec {
	return scenario.Spec{
		Scenario: "carfollow",
		Scheme:   "hcperf",
		Seed:     seed,
		Duration: 5,
		Fleet: &scenario.FleetSpec{
			N:        n,
			Coupling: scenario.FleetCouplingPlatoon,
			Spacing:  18,
		},
	}
}

// TestRunSpecDelegatesSingle proves a spec without a fleet block takes the
// single-vehicle path unchanged: fleet.RunSpec and scenario.RunSpec return
// byte-identical reports.
func TestRunSpecDelegatesSingle(t *testing.T) {
	spec := scenario.Spec{Scenario: "carfollow", Scheme: "edf", Seed: 3, Duration: 5}
	got := specDigest(t, spec)
	r, err := scenario.RunSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reportOf(r).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fleet.RunSpec digest %s != scenario.RunSpec digest %s for a fleet-less spec", got, want)
	}
}

// TestFleetByteIdenticalAcrossRuns is the 10-run repeatability probe: the
// same coupled fleet spec must digest identically on every execution.
func TestFleetByteIdenticalAcrossRuns(t *testing.T) {
	want := specDigest(t, platoonSpec(8, 42))
	for i := 1; i < 10; i++ {
		if got := specDigest(t, platoonSpec(8, 42)); got != want {
			t.Fatalf("run %d: digest %s != first run %s", i, got, want)
		}
	}
}

// TestFleetSeedSensitivity is the battery's counter-probe: a different
// fleet seed must change the digest, or the repeatability tests above
// prove nothing.
func TestFleetSeedSensitivity(t *testing.T) {
	if specDigest(t, platoonSpec(8, 1)) == specDigest(t, platoonSpec(8, 2)) {
		t.Error("fleet digests identical across different fleet seeds; digest is not discriminating")
	}
}

// TestFleetVerifySerialParallel runs the repo's standard determinism
// harness over fleet runs at N ∈ {1, 8, 128}: a 4-seed sweep of fleet
// specs fanned across the worker pool must digest byte-identically to its
// serial reference.
func TestFleetVerifySerialParallel(t *testing.T) {
	for _, n := range []int{1, 8, 128} {
		n := n
		if n == 128 && testing.Short() {
			continue
		}
		err := runner.VerifySerialParallel(context.Background(), 4, func(ctx context.Context, workers int) (runner.Digester, error) {
			seeds := []int64{1, 2, 3, 4}
			reports, err := runner.Map(ctx, workers, seeds, func(_ context.Context, seed int64) (*experiment.Report, error) {
				r, err := fleet.RunSpec(platoonSpec(n, seed), nil)
				if err != nil {
					return nil, err
				}
				return reportOf(r), nil
			})
			if err != nil {
				return nil, err
			}
			return sweepDigest(reports), nil
		})
		if err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

// sweepDigest combines a report sweep into one Digester.
type sweepDigest []*experiment.Report

func (s sweepDigest) Digest() (string, error) {
	var all strings.Builder
	for _, rep := range s {
		d, err := rep.Digest()
		if err != nil {
			return "", err
		}
		all.WriteString(d)
		all.WriteByte(';')
	}
	return all.String(), nil
}

// TestVehiclePermutationInvariance is the core metamorphic property: in an
// uncoupled fleet, vehicle identity is the seed. Shuffling the pinned
// per-vehicle seed list must leave each vehicle's stats and the whole
// fleet digest unchanged — canonical (sorted) aggregation makes even the
// floating-point reductions order-blind.
func TestVehiclePermutationInvariance(t *testing.T) {
	spec := func(seeds []int64) scenario.Spec {
		return scenario.Spec{
			Scenario: "carfollow",
			Scheme:   "hcperf",
			Duration: 5,
			Fleet:    &scenario.FleetSpec{N: len(seeds), VehicleSeeds: seeds},
		}
	}
	a := specDigest(t, spec([]int64{5, 17, 29, 41}))
	b := specDigest(t, spec([]int64{29, 41, 5, 17}))
	if a != b {
		t.Errorf("fleet digest changed under vehicle permutation: %s vs %s", a, b)
	}

	// Per-vehicle stats must follow their seed, not their slot.
	statsBySeed := func(seeds []int64) map[int64]fleet.VehicleStats {
		res, err := fleet.Run(fleet.Config{
			Base:         scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 5}},
			N:            len(seeds),
			VehicleSeeds: seeds,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[int64]fleet.VehicleStats, len(res.Vehicles))
		for _, v := range res.Vehicles {
			v.Index = 0 // identity is the seed; the slot may differ
			m[v.Seed] = v
		}
		return m
	}
	ma := statsBySeed([]int64{5, 17, 29, 41})
	mb := statsBySeed([]int64{29, 41, 5, 17})
	for seed, va := range ma {
		if vb := mb[seed]; va != vb {
			t.Errorf("seed %d: stats moved under permutation: %+v vs %+v", seed, va, vb)
		}
	}
}

// TestFleetN1EquivalentToSingle pins the other metamorphic anchor: a fleet
// of one uncoupled vehicle IS the existing single-vehicle scenario. Its
// lifecycle event stream must equal a standalone run's with the same seed,
// event for event, and its stats must match in every bit.
func TestFleetN1EquivalentToSingle(t *testing.T) {
	const seed = 77
	var fleetEvents, singleEvents []lifecycle.Event
	res, err := fleet.Run(fleet.Config{
		Base:         scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 5}},
		N:            1,
		VehicleSeeds: []int64{seed},
		Tracer:       lifecycle.TracerFunc(func(ev lifecycle.Event) { fleetEvents = append(fleetEvents, ev) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Loop: scenario.Loop{
		Scheme: scenario.SchemeHCPerf, Seed: seed, Duration: 5,
		Tracer: lifecycle.TracerFunc(func(ev lifecycle.Event) { singleEvents = append(singleEvents, ev) }),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(singleEvents) == 0 {
		t.Fatal("single run traced no events")
	}
	if len(fleetEvents) != len(singleEvents) {
		t.Fatalf("N=1 fleet traced %d events, single run %d", len(fleetEvents), len(singleEvents))
	}
	for i := range fleetEvents {
		if fleetEvents[i] != singleEvents[i] {
			t.Fatalf("event %d: fleet %+v != single %+v", i, fleetEvents[i], singleEvents[i])
		}
	}
	if got, want := statsBits(res.Vehicles[0]), statsBits(statsOf(0, seed, single)); got != want {
		t.Errorf("N=1 fleet stats diverge from the single run:\n fleet  %s\n single %s", got, want)
	}
}

// TestFleetOfKEqualsKSingles generalises N=1 equivalence into the aliasing
// regression the 1000× scale-up demands: K uncoupled vehicles in one
// process and one address space must each produce the exact stats of K
// fully independent runs, in every bit. Any state leaking across vehicles
// — a shared engine slice, a reused solver scratch buffer, an RNG touched
// by a neighbour — breaks them. Each vehicle runs alone on the event queue,
// one after another, so the fleet's lifecycle event stream is the K single
// runs' streams joined end to end, event for event. (The scenario layer's
// TestAttachedLoopsDoNotAlias compares whole recorded histories.)
func TestFleetOfKEqualsKSingles(t *testing.T) {
	seeds := []int64{101, 202, 303}
	var fleetEvents, singleEvents []lifecycle.Event
	res, err := fleet.Run(fleet.Config{
		Base:         scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 5}},
		N:            len(seeds),
		VehicleSeeds: seeds,
		Tracer:       lifecycle.TracerFunc(func(ev lifecycle.Event) { fleetEvents = append(fleetEvents, ev) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		single, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Loop: scenario.Loop{
			Scheme: scenario.SchemeHCPerf, Seed: seed, Duration: 5,
			Tracer: lifecycle.TracerFunc(func(ev lifecycle.Event) { singleEvents = append(singleEvents, ev) }),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := statsBits(res.Vehicles[i]), statsBits(statsOf(i, seed, single)); got != want {
			t.Errorf("vehicle %d (seed %d): fleet stats diverge from an independent run:\n fleet  %s\n single %s", i, seed, got, want)
		}
	}
	if len(fleetEvents) != len(singleEvents) {
		t.Fatalf("fleet traced %d events, the single runs %d", len(fleetEvents), len(singleEvents))
	}
	for i := range fleetEvents {
		if fleetEvents[i] != singleEvents[i] {
			t.Fatalf("event %d: fleet %+v != single runs %+v", i, fleetEvents[i], singleEvents[i])
		}
	}
}

// statsOf is the VehicleStats a fleet reports for vehicle i, built from
// an independent run of the same vehicle.
func statsOf(i int, seed int64, r *scenario.CarFollowingResult) fleet.VehicleStats {
	return fleet.VehicleStats{
		Index:        i,
		Seed:         seed,
		SpeedErrRMS:  r.SpeedErrRMS,
		DistErrRMS:   r.DistErrRMS,
		MissRatio:    r.Miss.MeanRatio(),
		Throughput:   r.Throughput,
		MeanResponse: r.MeanResponse,
		Collision:    r.Collision,
	}
}

// statsBits renders every field of v, each float64 as its IEEE-754 bits,
// so two renderings are equal only if the stats are equal bit for bit.
func statsBits(v fleet.VehicleStats) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(&b, "%s=%016x ", rv.Type().Field(i).Name, math.Float64bits(f.Float()))
		} else {
			fmt.Fprintf(&b, "%s=%v ", rv.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// fleetConfig maps a fleet spec onto the Config RunSpec runs it with.
func fleetConfig(t *testing.T, spec scenario.Spec) fleet.Config {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	base, err := scenario.CarFollowingConfigFromSpec(norm)
	if err != nil {
		t.Fatal(err)
	}
	f := norm.Fleet
	return fleet.Config{
		Base:           base,
		N:              f.N,
		Coupling:       f.Coupling,
		Spacing:        f.Spacing,
		BrakeThreshold: f.BrakeThreshold,
		BrakeObstacles: f.BrakeObstacles,
		Seed:           norm.Seed,
		VehicleSeeds:   f.VehicleSeeds,
	}
}

// TestVehicleStatsPinned pins every vehicle's stats, each float64 in full
// bits, for the shipped 256-vehicle platoon spec and a 16-vehicle
// uncoupled 12 s fleet. Report rows print these stats with %.4f and cannot
// see a change in the last bit; these digests can. A change to them is a
// change to the simulation.
func TestVehicleStatsPinned(t *testing.T) {
	platoon, err := scenario.DecodeSpec(bytes.NewReader(specs.PlatoonFleet))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec scenario.Spec
		want string
	}{
		{"platoon-fleet.json", platoon, "07cdd6852176e80a1db0ffd6be43428b8e0ff46509fe29288e763dda0445b4ef"},
		{"uncoupled N=16", scenario.Spec{
			Scenario: "carfollow", Scheme: "hcperf", Seed: 5, Duration: 12,
			Fleet: &scenario.FleetSpec{N: 16},
		}, "7be95f427397dff8cd3152ad8585e08db5a552c3a6eed5c527c899e7ea924fb7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.spec.Fleet.N > 16 {
				t.Skip("256-vehicle fleet skipped in -short mode")
			}
			res, err := fleet.Run(fleetConfig(t, tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, v := range res.Vehicles {
				fmt.Fprintln(h, statsBits(v))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("per-vehicle stats digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestFleetConcurrentRace runs coupled fleets concurrently under the race
// detector (CI's focused race job runs this package with -race): N=64
// platoons in parallel goroutines must neither race nor diverge from the
// serial digest. This is the audit for the engine's dense task-indexed
// slices and per-loop solver reuse at fleet scale.
func TestFleetConcurrentRace(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 8
	}
	want := specDigest(t, platoonSpec(n, 9))
	const fleets = 3
	got := make([]string, fleets)
	done := make(chan int, fleets)
	for i := 0; i < fleets; i++ {
		go func(i int) {
			defer func() { done <- i }()
			r, err := fleet.RunSpec(platoonSpec(n, 9), nil)
			if err != nil {
				t.Error(err)
				return
			}
			d, err := reportOf(r).Digest()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d
		}(i)
	}
	for i := 0; i < fleets; i++ {
		<-done
	}
	for i, d := range got {
		if d != want {
			t.Errorf("concurrent fleet %d: digest %s != serial reference %s", i, d, want)
		}
	}
}

// TestVehicleSeedPartition checks the splitmix64 partition: per-vehicle
// seeds are pairwise distinct across a large fleet and depend only on
// (fleetSeed, index) — never on N.
func TestVehicleSeedPartition(t *testing.T) {
	seen := make(map[int64]int, 1000)
	for i := 0; i < 1000; i++ {
		s := fleet.VehicleSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: vehicles %d and %d both derive %d", prev, i, s)
		}
		seen[s] = i
	}
	if fleet.VehicleSeed(1, 0) == fleet.VehicleSeed(2, 0) {
		t.Error("vehicle 0 seed identical under different fleet seeds")
	}
}

// TestRunValidation exercises the fleet runner's parameter checks.
func TestRunValidation(t *testing.T) {
	base := scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 5}}
	cases := []struct {
		name string
		cfg  fleet.Config
		want string
	}{
		{"zero vehicles", fleet.Config{Base: base, N: 0}, "N 0 < 1"},
		{"unknown coupling", fleet.Config{Base: base, N: 2, Coupling: "v2x"}, "unknown coupling"},
		{"negative spacing", fleet.Config{Base: base, N: 2, Spacing: -1}, "negative spacing"},
		{"seed count mismatch", fleet.Config{Base: base, N: 3, VehicleSeeds: []int64{1}}, "1 vehicle seeds for 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fleet.Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPlatoonCouplingBites is the sanity check that the coupling is real:
// a platoon fleet must not digest identically to the same fleet uncoupled,
// and followers must start Spacing apart without colliding.
func TestPlatoonCouplingBites(t *testing.T) {
	uncoupled := scenario.Spec{
		Scenario: "carfollow", Scheme: "hcperf", Seed: 42, Duration: 5,
		Fleet: &scenario.FleetSpec{N: 8},
	}
	if specDigest(t, platoonSpec(8, 42)) == specDigest(t, uncoupled) {
		t.Error("platoon coupling had no observable effect on the fleet digest")
	}
	res, err := fleet.Run(fleet.Config{
		Base:     scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 5}},
		N:        8,
		Coupling: scenario.FleetCouplingPlatoon,
		Spacing:  18,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions != 0 {
		t.Errorf("platoon with 18 m spacing collided: %d collisions", res.Collisions)
	}
}
