package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// CarFollowingConfig parameterises the car-following scenario (paper
// §VII-B1, §VII-C and the hardware study §VII-B3): the closed loop plus
// the longitudinal plant. Zero fields take the defaults of the simulation
// evaluation: a 90 s run of a sine-speed lead (10-20 m/s, 7 s period)
// over the 23-task graph on 2 processors, through the complex-scene
// episode over t ∈ [10 s, 80 s) that doubles the sensor-fusion time
// (obstacles 11 → 23; DefaultCarFollowingObstacles).
type CarFollowingConfig struct {
	Loop
	// LeadProfile is the lead vehicle's speed profile (default sine).
	LeadProfile vehicle.SpeedProfile
	// InitSpeed is the follower's starting speed (default: profile
	// speed at t = 0).
	InitSpeed float64
	// InitGap is the initial gap to the lead vehicle in metres (default:
	// the desired gap at InitSpeed). Fleet platoons use it to set the
	// initial inter-vehicle spacing.
	InitGap float64
	// SpeedNoiseSD adds Gaussian noise to the perceived lead speed
	// (m/s; hardware emulation).
	SpeedNoiseSD float64
	// GapNoiseSD adds Gaussian noise to the perceived gap (m).
	GapNoiseSD float64
	// Longitudinal bounds the follower (default passenger car).
	Longitudinal vehicle.LongitudinalConfig
	// FollowerGains tunes the car-following law (default gains).
	FollowerGains vehicle.CarFollower
	// TrackGapError makes the coordinator track the gap error instead
	// of the speed error (the Fig. 16/17 responsiveness study).
	TrackGapError bool
}

// DefaultCarFollowingObstacles is the paper's complex-scene episode — 11
// obstacles normally (fusion ≈ 20 ms), 23 during t ∈ [10 s, 80 s) (fusion
// ≈ 40 ms, and the obstacle-sensitive detection/tracking tasks inflate
// with it) — the obstacle field a zero-valued CarFollowingConfig runs
// over. It is exported so the fleet layer can wrap the same shared field
// with per-follower coupling terms.
func DefaultCarFollowingObstacles(t float64) int {
	if t >= 10 && t < 80 {
		return 23
	}
	return 11
}

// carFollowRates are the initial source rates of the car-following and
// combined scenarios.
var carFollowRates = map[string]float64{
	"camera_front": 10, "camera_traffic_light": 8,
	"lidar_scan": 10, "radar_scan": 12,
}

// carFollowFamily is what the car-following scenario fixes about its loop.
var carFollowFamily = family{
	graph:     GraphAD23,
	duration:  90,
	obstacles: DefaultCarFollowingObstacles,
	rates:     carFollowRates,
}

func (c *CarFollowingConfig) applyDefaults() error {
	if err := c.Loop.applyDefaults(carFollowFamily); err != nil {
		return err
	}
	if c.LeadProfile == nil {
		c.LeadProfile = vehicle.SineProfile{Mean: 15, Amp: 5, Period: 7}
	}
	if c.InitSpeed == 0 {
		c.InitSpeed = c.LeadProfile.Speed(0)
	}
	if c.Longitudinal == (vehicle.LongitudinalConfig{}) {
		c.Longitudinal = vehicle.DefaultLongitudinal()
	}
	if c.FollowerGains == (vehicle.CarFollower{}) {
		c.FollowerGains = vehicle.DefaultCarFollower()
	}
	if c.InitGap < 0 {
		return fmt.Errorf("scenario: negative initial gap %v", c.InitGap)
	}
	return nil
}

// CarFollowingResult aggregates everything the paper reports for one
// car-following run.
type CarFollowingResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds the recorded time series: lead_speed, follow_speed,
	// speed_err, dist_err, gap, miss_ratio, throughput, response_ms,
	// discomfort, and for HCPerf schemes gamma and u. It is nil for a run
	// attached without a recorder.
	Rec *trace.Recorder
	// SpeedErrRMS is the RMS speed tracking error (Table II / V).
	SpeedErrRMS float64
	// DistErrRMS is the RMS distance tracking error (Table III / VI).
	DistErrRMS float64
	// Miss holds per-second deadline accounting (Fig. 13(d) / 15(d)).
	Miss *metrics.MissBuckets
	// EngineStats is the engine's final counter snapshot.
	EngineStats lifecycle.Stats
	// Collision reports a gap <= 0 event and its time.
	Collision   bool
	CollisionAt float64
	// MeanResponse is the mean control-command response time (s).
	MeanResponse float64
	// Throughput is control commands per second over the run.
	Throughput float64
	// Overhead is the coordinator's own wall-clock cost per step
	// (HCPerf schemes only; zero-valued otherwise).
	Overhead stats.Accumulator
	// WeaklyHard tracks the (1,10) weakly-hard constraint over *decided*
	// control jobs: at most one late command in any ten that ran.
	// (Cycles suppressed upstream never release a control job and are
	// visible in MaxCommandGap instead.)
	WeaklyHard *metrics.WeaklyHard
	// MaxCommandGap is the longest interval between consecutive control
	// commands (s) after the initial adjustment period (the first quarter
	// of the run, at most 20 s) — the actuator's worst steady-state
	// starvation stretch. (The paper notes HCPerf needs a brief
	// adjustment at start-up and after load changes; the window excludes
	// the start-up transient but includes the complex-scene adaptation.)
	MaxCommandGap float64
}

// carFollowPlant is the longitudinal car-following world: a lead vehicle
// on a speed profile and a follower driven by stale pipeline outputs.
type carFollowPlant struct {
	cfg   *CarFollowingConfig
	noise *rand.Rand
	gains vehicle.CarFollower

	follower *vehicle.Longitudinal
	lead     *vehicle.Lead

	// Full-resolution world history for stale-perception lookups.
	hist history[lonState]

	// The tracking errors' RMS over [0, Duration), kept as the run goes
	// whether or not it records series.
	speedErr, distErr rmsWindow

	weaklyHard *metrics.WeaklyHard
	discomfort *metrics.Discomfort
	collide    metrics.CollisionDetector

	// Per-second response-time accounting (Fig. 17(b)) and command-gap
	// tracking.
	respWindow     stats.Accumulator
	lastCmdAt      float64
	maxGap         float64
	gapWindowStart float64
	lastCmds       uint64

	// The series recorded per dynamics step, per coordinator control
	// period and per summary sample; nil without a recorder.
	steps, coord, samples seriesRow
}

func newCarFollowPlant(cfg *CarFollowingConfig, rec *trace.Recorder, n seriesLens) (*carFollowPlant, error) {
	p := &carFollowPlant{
		cfg:   cfg,
		noise: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		gains: cfg.FollowerGains,
		// Room for the initial row and one per dynamics step.
		hist:           make(history[lonState], 0, n.step+1),
		gapWindowStart: math.Min(20, cfg.Duration/4),
		speedErr:       rmsWindow{to: cfg.Duration},
		distErr:        rmsWindow{to: cfg.Duration},
		steps:          newSeriesRow(rec, n.step, "lead_speed", "follow_speed", "speed_err", "gap", "dist_err"),
		coord:          newSeriesRow(rec, n.control, "tracking_err_sample", "u", "gamma"),
		samples: newSeriesRow(rec, n.sample, "throughput", "response_ms", "discomfort", "miss_ratio",
			"queue_len", "utilization", "rate_camera", "rate_lidar"),
	}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(cfg.Longitudinal); err != nil {
		return nil, err
	}
	p.follower.Speed = cfg.InitSpeed
	gap0 := cfg.InitGap
	if gap0 == 0 {
		gap0 = cfg.FollowerGains.StandstillGap + cfg.FollowerGains.Headway*cfg.InitSpeed
	}
	if p.lead, err = vehicle.NewLead(cfg.LeadProfile, gap0); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, lonStateOf(p.lead, p.lead.Speed(), p.follower)); err != nil {
		return nil, err
	}
	if p.weaklyHard, err = metrics.NewWeaklyHard(1, 10); err != nil {
		return nil, err
	}
	if p.discomfort, err = metrics.NewDiscomfort(200); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *carFollowPlant) Perceive(cmd lifecycle.ControlCommand) {
	if s, ok := p.hist.at(float64(cmd.SourceTime)); ok {
		leadSpd, leadPos, folPos, folSpd := s.leadSpeed, s.leadPos, s.folPos, s.folSpeed
		if p.cfg.SpeedNoiseSD > 0 {
			leadSpd += p.noise.NormFloat64() * p.cfg.SpeedNoiseSD
		}
		gap := leadPos - folPos
		if p.cfg.GapNoiseSD > 0 {
			gap += p.noise.NormFloat64() * p.cfg.GapNoiseSD
		}
		// The planner computes the command from the pipeline's input
		// snapshot — ego state included — so the full sensing-to-
		// actuation latency sits inside the control loop, exactly the
		// quantity scheduling controls.
		p.follower.SetAccelCommand(p.gains.Accel(folSpd, leadSpd, gap))
	}
	p.respWindow.Add(float64(cmd.ResponseTime()))
	if gap := float64(cmd.Completed) - p.lastCmdAt; gap > p.maxGap && float64(cmd.Completed) >= p.gapWindowStart {
		p.maxGap = gap
	}
	p.lastCmdAt = float64(cmd.Completed)
}

func (p *carFollowPlant) JobDecided(j *sched.Job, missed bool) {
	if j.Task.IsControl {
		p.weaklyHard.Note(missed)
	}
}

func (p *carFollowPlant) TrackingError(simtime.Time) float64 {
	if p.cfg.TrackGapError {
		desired := p.gains.StandstillGap + p.gains.Headway*p.follower.Speed
		return math.Abs(desired - (p.lead.Position - p.follower.Position))
	}
	return math.Abs(p.lead.Speed() - p.follower.Speed)
}

func (p *carFollowPlant) CoordSample(now simtime.Time, e, u, gamma float64) {
	p.coord.add(float64(now), e, u, gamma)
}

func (p *carFollowPlant) Step(now float64) {
	step := p.cfg.VehicleStep
	if err := p.lead.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	lead := p.lead.Speed()
	if err := p.hist.add(now, lonStateOf(p.lead, lead, p.follower)); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	gap := p.lead.Position - p.follower.Position
	desired := p.gains.StandstillGap + p.gains.Headway*p.follower.Speed
	p.collide.Note(now, gap)
	if err := p.discomfort.Note(now, p.follower.Accel()); err != nil {
		panic(fmt.Sprintf("scenario: discomfort: %v", err))
	}
	speedErr, distErr := lead-p.follower.Speed, gap-desired
	p.speedErr.add(now, speedErr)
	p.distErr.add(now, distErr)
	if p.steps != nil {
		p.steps.add(now, lead, p.follower.Speed, speedErr, gap, distErr)
	}
}

// rmsWindow is the RMS of the samples with 0 <= t < to, summed in sample
// order: over the samples a series records, it is bit for bit
// trace.Series.RMS(0, to).
type rmsWindow struct {
	to, sumSq float64
	n         int
}

func (w *rmsWindow) add(t, v float64) {
	if t >= 0 && t < w.to {
		w.sumSq += v * v
		w.n++
	}
}

func (w *rmsWindow) rms() float64 {
	if w.n == 0 {
		return 0
	}
	return math.Sqrt(w.sumSq / float64(w.n))
}

// Sample records the summary series. Without a recorder it has nothing to
// do: the per-second throughput and response window feed only them.
func (p *carFollowPlant) Sample(t float64, env *Env) {
	if p.samples == nil {
		return
	}
	k := env.Eng.Kernel()
	cmds := k.Stats().ControlCommands
	throughput := float64(cmds - p.lastCmds)
	p.lastCmds = cmds
	resp := p.respWindow.Mean() * 1000
	p.respWindow.Reset()
	p.samples.add(t, throughput, resp, p.discomfort.Index(), env.Miss.Ratio(int(t)-1),
		float64(k.QueueLen()), env.Eng.Utilization(),
		k.Rate(env.Graph.TaskByName("camera_front").ID), k.Rate(env.Graph.TaskByName("lidar_scan").ID))
}

// CarFollowingRun is one car-following closed loop attached to an event
// queue but not yet run to completion. The fleet layer runs one per
// vehicle, one after another on one queue: the live accessors expose the
// state the fleet samples, Finish collects the result once the queue has
// reached the run's duration, and Replay hands a finished run's follower
// on to the next vehicle of a platoon.
type CarFollowingRun struct {
	cfg CarFollowingConfig
	rec *trace.Recorder
	a   *attachedLoop
	p   *carFollowPlant
}

// AttachCarFollowing validates cfg, applies its defaults and wires one
// car-following closed loop onto q without running it. The caller owns the
// queue and decides how far to advance it; the attached loop's events are
// ordered deterministically with everything else scheduled on q. The
// loop records its series into rec; a nil rec records none, and the result
// still carries the tracking-error RMS.
func AttachCarFollowing(q *simtime.EventQueue, cfg CarFollowingConfig, rec *trace.Recorder) (*CarFollowingRun, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	var p *carFollowPlant
	a, err := attachLoop(q, cfg.Loop, carFollowFamily, func(n seriesLens) (Plant, error) {
		var err error
		p, err = newCarFollowPlant(&cfg, rec, n)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	return &CarFollowingRun{cfg: cfg, rec: rec, a: a, p: p}, nil
}

// Duration returns the run's defaulted duration in seconds — how far the
// owning queue must be advanced before Finish.
func (r *CarFollowingRun) Duration() float64 { return r.cfg.Duration }

// Gap returns the current gap to the lead vehicle (m).
func (r *CarFollowingRun) Gap() float64 { return r.p.lead.Position - r.p.follower.Position }

// TrackingError returns the plant's current tracking error — the quantity
// the coordinator regulates and the fleet layer aggregates.
func (r *CarFollowingRun) TrackingError(now simtime.Time) float64 { return r.p.TrackingError(now) }

// Finish collects the run's result. It must be called only after the owning
// queue has been advanced to at least Duration.
func (r *CarFollowingRun) Finish() *CarFollowingResult {
	out := r.a.finish()
	p, cfg := r.p, &r.cfg
	res := &CarFollowingResult{
		Scheme:        cfg.Scheme,
		Rec:           r.rec,
		Miss:          out.Miss,
		EngineStats:   out.EngineStats,
		Collision:     p.collide.Collided(),
		CollisionAt:   p.collide.At(),
		WeaklyHard:    p.weaklyHard,
		MaxCommandGap: p.maxGap,
		Overhead:      out.Overhead,
	}
	res.SpeedErrRMS = p.speedErr.rms()
	res.DistErrRMS = p.distErr.rms()
	res.MeanResponse = out.EngineStats.ControlResponse.Mean()
	res.Throughput = float64(out.EngineStats.ControlCommands) / cfg.Duration
	return res
}

// Predecessor is a finished run's follower as the next vehicle of a platoon
// perceives it: the speed and achieved acceleration the follower had after
// its latest dynamics step. A replay ticker on the next vehicle's queue
// (Replay) advances it one recorded step at a time.
type Predecessor struct {
	rows history[lonState]
	k    int // the row of the latest replayed step; row 0 is the start
}

// Speed implements vehicle.SpeedProfile: the predecessor's speed after its
// latest replayed step, whatever t.
func (p *Predecessor) Speed(float64) float64 { return p.rows[p.k].row.folSpeed }

// Accel returns the predecessor's achieved acceleration after its latest
// replayed step (m/s^2, negative while braking): the signal platoon
// coupling turns into follower-side obstacles.
func (p *Predecessor) Accel() float64 { return p.rows[p.k].row.folAccel }

// Replay attaches to q a ticker that replays r's follower, as recorded in
// its world history, for the next vehicle of a platoon. r's queue must have
// been run to its duration, and q must not yet hold the next vehicle's
// loop. The ticker has the start and period of r's dynamics ticker and
// moves the Predecessor to the state after the step r took at the same
// instant. Attached before the next vehicle's loop, each of its ticks fires
// where r's dynamics tick fired among that vehicle's events when every
// vehicle shared one queue: at a common instant, events fire in the order
// they were scheduled, and both orders are fixed by the same construction
// order. The Predecessor holds only r's history rows.
func (r *CarFollowingRun) Replay(q *simtime.EventQueue) (*Predecessor, error) {
	p := &Predecessor{rows: r.p.hist}
	step := r.cfg.VehicleStep
	if err := q.NewTicker(simtime.Time(step), simtime.Duration(step), func(now simtime.Time) {
		p.k++
		if p.k >= len(p.rows) || p.rows[p.k].t != float64(now) {
			panic(fmt.Sprintf("scenario: replay at %v has no predecessor step", now))
		}
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// RunCarFollowing executes one car-following run and returns its result.
func RunCarFollowing(cfg CarFollowingConfig) (*CarFollowingResult, error) {
	q := simtime.NewEventQueue()
	r, err := AttachCarFollowing(q, cfg, trace.NewRecorder())
	if err != nil {
		return nil, err
	}
	q.RunUntil(simtime.Time(r.cfg.Duration))
	return r.Finish(), nil
}
