package scenario

import (
	"fmt"

	"hcperf/internal/vehicle"
)

// HardwareCarFollowingConfig returns the §VII-B3 hardware-testbed study as
// a scenario preset: two 1:10-scale cars, a 20 s drive with 5 s of
// acceleration, 10 s of cruise and 5 s of deceleration, noisy speed and
// range sensing, and the scaled car's throttle lag. The simulation and
// hardware experiments differ exactly by these vehicle-scale and noise
// parameters, mirroring the paper's setup.
func HardwareCarFollowingConfig(scheme Scheme, seed int64) (CarFollowingConfig, error) {
	lead, err := vehicle.NewPiecewiseProfile([]vehicle.PhasePoint{
		{T: 0, Speed: 0.02}, // creep from standstill so the gap law engages
		{T: 5, Speed: 1.5},
		{T: 15, Speed: 1.5},
		{T: 20, Speed: 0.02},
	})
	if err != nil {
		return CarFollowingConfig{}, fmt.Errorf("scenario: hardware preset: %w", err)
	}
	return CarFollowingConfig{
		Loop: Loop{
			Scheme:   scheme,
			Seed:     seed,
			Duration: 20,
			// The hardware run has no complex-scene episode; the scaled
			// indoor track keeps a constant obstacle count.
			Obstacles: func(float64) int { return 18 },
		},
		LeadProfile:  lead,
		InitSpeed:    0.02,
		Longitudinal: vehicle.ScaledCarLongitudinal(),
		FollowerGains: vehicle.CarFollower{
			Kv: 5, Kg: 1.5, StandstillGap: 0.4, Headway: 0.6,
		},
		// Scaled-car sensing is noisy (paper: "the speed record of the
		// lead car is affected by the presence of noise").
		SpeedNoiseSD: 0.02,
		GapNoiseSD:   0.01,
	}, nil
}

// JamCarFollowingConfig returns the §VII-C responsiveness/throughput study
// as a scenario preset (Figs. 16-17): both cars cruise at 20 m/s; at
// t = 10 s the lead decelerates into a traffic jam while the surrounding
// vehicle count grows, inflating task execution times; past t = 20 s the
// jam clears. The coordinator tracks the gap error, and the result's
// response_ms and discomfort series reproduce Fig. 17(b).
func JamCarFollowingConfig(scheme Scheme, seed int64) (CarFollowingConfig, error) {
	lead, err := vehicle.NewPiecewiseProfile([]vehicle.PhasePoint{
		{T: 0, Speed: 20},
		{T: 10, Speed: 20},
		{T: 14, Speed: 6},
		{T: 20, Speed: 6},
		{T: 26, Speed: 20},
	})
	if err != nil {
		return CarFollowingConfig{}, fmt.Errorf("scenario: jam preset: %w", err)
	}
	return CarFollowingConfig{
		Loop: Loop{
			Scheme:   scheme,
			Seed:     seed,
			Duration: 35,
			Obstacles: func(t float64) int {
				switch {
				case t < 10:
					return 11
				case t < 20:
					// The jam fills the scene with vehicles.
					return 11 + int((t-10)/10*17)
				case t < 24:
					return 28 - int((t-20)/4*17)
				default:
					return 11
				}
			},
		},
		LeadProfile:   lead,
		InitSpeed:     20,
		TrackGapError: true,
	}, nil
}

// AEBCarFollowingConfig returns an automatic-emergency-braking stress test
// (an extension beyond the paper's scenarios, exercising the intro's
// obstacle-avoidance motivation): both cars cruise at 20 m/s with a
// comfortable gap; at t = 5 s the lead performs a panic stop at 8 m/s²
// while the scene complexity spikes. The follower can only brake at
// 7 m/s² and keeps a short 0.6 s headway, so its stopping margin — the
// minimum gap reached — measures each scheme's sensing-to-actuation
// responsiveness directly: every 100 ms of staleness costs ~2 m of margin.
func AEBCarFollowingConfig(scheme Scheme, seed int64) (CarFollowingConfig, error) {
	lead, err := vehicle.NewPiecewiseProfile([]vehicle.PhasePoint{
		{T: 0, Speed: 20},
		{T: 5, Speed: 20},
		{T: 5 + 20.0/8.0, Speed: 0}, // 8 m/s^2 panic stop
	})
	if err != nil {
		return CarFollowingConfig{}, fmt.Errorf("scenario: aeb preset: %w", err)
	}
	return CarFollowingConfig{
		Loop: Loop{
			Scheme:   scheme,
			Seed:     seed,
			Duration: 15,
			Obstacles: func(t float64) int {
				if t >= 5 {
					return 24 // the braking event floods the scene
				}
				return 11
			},
		},
		LeadProfile:  lead,
		InitSpeed:    20,
		Longitudinal: vehicle.LongitudinalConfig{MaxAccel: 6, MaxBrake: 7, ActuatorTau: 0.1, MaxSpeed: 40},
		FollowerGains: vehicle.CarFollower{
			Kv: 5, Kg: 1, StandstillGap: 5, Headway: 0.6,
		},
	}, nil
}
