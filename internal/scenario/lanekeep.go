package scenario

import (
	"fmt"
	"math"

	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/rate"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// laneKeepSpeed is the lane-keeping vehicle's fixed longitudinal speed
// (m/s).
const laneKeepSpeed = 5

// laneKeepTrack is the closed circuit: an oval with 100 m straights and a
// 12 m corner radius — four distinct turns per lap.
var laneKeepTrack = func() *vehicle.Track {
	track, err := vehicle.OvalTrack(100, 12)
	if err != nil {
		panic(err) // fixed, valid dimensions
	}
	return track
}()

// laneKeepFamily is what the lane-keeping scenario fixes about its loop: one
// full lap over a busy urban loop (16 obstacles), with the lane-keeping
// MFC scale and rate-adapter profile. The controller gains are scaled to
// centimetre-scale errors, and the rate adapter probes conservatively —
// at a fixed cruise speed extra sensor throughput cannot improve
// steering, so the offline-profiled ε is small (paper §VI: K_p and the
// probing error are set from offline profiled data).
var laneKeepFamily = family{
	graph:     GraphAD23,
	duration:  laneKeepTrack.Length() / laneKeepSpeed,
	obstacles: func(float64) int { return 16 },
	rates: map[string]float64{
		"camera_front": 12, "camera_traffic_light": 8,
		"lidar_scan": 12, "radar_scan": 12,
	},
	mfcScale:   0.1,
	rateConfig: laneKeepingRateConfig(),
}

// LaneKeepingResult aggregates the lane-keeping outcomes.
type LaneKeepingResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds the recorded series: offset, heading, curvature,
	// miss_ratio, throughput, and gamma/u for HCPerf schemes.
	Rec *trace.Recorder
	// OffsetRMS is the RMS lateral offset (Table IV).
	OffsetRMS float64
	// OffsetMax is the worst excursion from the centreline.
	OffsetMax float64
	// Miss holds per-second deadline accounting.
	Miss *metrics.MissBuckets
	// EngineStats is the engine's final counter snapshot.
	EngineStats lifecycle.Stats
	// Throughput is control commands per second.
	Throughput float64
	// Overhead is the coordinator's wall-clock cost per step (HCPerf
	// schemes only).
	Overhead stats.Accumulator
}

// laneKeepingRateConfig is the lane-keeping profile of the Task Rate
// Adapter: identical to the default except for a conservative probing
// error, reflecting that steering quality at fixed speed does not improve
// with sensor throughput.
func laneKeepingRateConfig() rate.Config {
	cfg := rate.DefaultConfig()
	cfg.Epsilon = 1e-6
	return cfg
}

// laneKeepPlant is the lateral lane-keeping world: a bicycle-model vehicle
// steered along a closed track from stale pipeline outputs.
type laneKeepPlant struct {
	rec  *trace.Recorder
	step float64

	lat      *vehicle.Lateral
	distance float64 // arc length along the track

	// Full-resolution world history for stale-perception lookups.
	hist history[latState]

	lastCmds uint64
}

func newLaneKeepPlant(step float64, rec *trace.Recorder) (*laneKeepPlant, error) {
	p := &laneKeepPlant{rec: rec, step: step}
	var err error
	if p.lat, err = vehicle.NewLateral(vehicle.DefaultLateral()); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, p.state()); err != nil {
		return nil, err
	}
	return p, nil
}

// state is the world state a perception reads.
func (p *laneKeepPlant) state() latState {
	return latState{offset: p.lat.Y, heading: p.lat.Psi, dist: p.distance}
}

func (p *laneKeepPlant) Perceive(cmd lifecycle.ControlCommand) {
	st, ok := p.hist.at(float64(cmd.SourceTime))
	if !ok {
		return
	}
	// Feed-forward uses the curvature a short preview ahead of the
	// perceived position.
	curv := laneKeepTrack.Curvature(st.dist + 0.3*laneKeepSpeed)
	p.lat.SetSteerCommand(vehicle.DefaultLaneKeeper().Steer(st.offset, st.heading, curv))
}

// TrackingError is the performance metric: the lateral offset from the
// lane centre (paper §VII-B2).
func (p *laneKeepPlant) TrackingError(simtime.Time) float64 { return math.Abs(p.lat.Y) }

func (p *laneKeepPlant) CoordSample(now simtime.Time, e, u, gamma float64) {
	recAdd(p.rec, "tracking_err_sample", float64(now), e)
	recAdd(p.rec, "u", float64(now), u)
	recAdd(p.rec, "gamma", float64(now), gamma)
}

func (p *laneKeepPlant) Step(now float64) {
	curv := laneKeepTrack.Curvature(p.distance)
	if err := p.lat.Step(p.step, laneKeepSpeed, curv); err != nil {
		panic(fmt.Sprintf("scenario: lateral step: %v", err))
	}
	p.distance += laneKeepSpeed * p.step
	if err := p.hist.add(now, p.state()); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	recAdd(p.rec, "offset", now, p.lat.Y)
	recAdd(p.rec, "heading", now, p.lat.Psi)
	recAdd(p.rec, "curvature", now, curv)
}

func (p *laneKeepPlant) Sample(t float64, env *Env) {
	cmds := env.Eng.Kernel().Stats().ControlCommands
	recAdd(p.rec, "throughput", t, float64(cmds-p.lastCmds))
	p.lastCmds = cmds
	recAdd(p.rec, "miss_ratio", t, env.Miss.Ratio(int(t)-1))
}

// RunLaneKeeping executes one loop-driving run (paper §VII-B2, Fig. 14):
// the vehicle circles an oval track clockwise at a fixed longitudinal
// speed; the performance metric is the lateral offset from the lane
// centre. Zero Loop fields take the scenario's defaults: one full lap
// over 16 obstacles.
func RunLaneKeeping(l Loop) (*LaneKeepingResult, error) {
	out, err := runLoop(&l, laneKeepFamily, func(rec *trace.Recorder) (Plant, error) {
		return newLaneKeepPlant(l.VehicleStep, rec)
	})
	if err != nil {
		return nil, err
	}

	res := &LaneKeepingResult{
		Scheme:      l.Scheme,
		Rec:         out.Rec,
		Miss:        out.Miss,
		EngineStats: out.EngineStats,
		Overhead:    out.Overhead,
	}
	off := out.Rec.Series("offset")
	res.OffsetRMS = off.RMS(0, l.Duration)
	res.OffsetMax = off.MaxAbs(0, l.Duration)
	res.Throughput = float64(out.EngineStats.ControlCommands) / l.Duration
	return res, nil
}
