package scenario

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"hcperf/examples/specs"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

func TestSchemeStrings(t *testing.T) {
	tests := []struct {
		scheme Scheme
		want   string
	}{
		{scheme: SchemeHPF, want: "HPF"},
		{scheme: SchemeEDF, want: "EDF"},
		{scheme: SchemeEDFVD, want: "EDF-VD"},
		{scheme: SchemeApollo, want: "Apollo"},
		{scheme: SchemeHCPerf, want: "HCPerf"},
		{scheme: SchemeHCPerfInternal, want: "HCPerf-Internal"},
		{scheme: Scheme(99), want: "scheme(99)"},
	}
	for _, tt := range tests {
		if got := tt.scheme.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.scheme), got, tt.want)
		}
	}
	if len(BaselineSchemes()) != 4 {
		t.Error("want 4 baselines")
	}
	if got := AllSchemes(); len(got) != 5 || got[4] != SchemeHCPerf {
		t.Errorf("AllSchemes = %v", got)
	}
	if !SchemeHCPerf.IsHCPerf() || !SchemeHCPerfInternal.IsHCPerf() || SchemeEDF.IsHCPerf() {
		t.Error("IsHCPerf misclassifies")
	}
}

func TestParseScheme(t *testing.T) {
	tests := []struct {
		give    string
		want    Scheme
		wantErr bool
	}{
		{give: "hpf", want: SchemeHPF},
		{give: "edf", want: SchemeEDF},
		{give: "edfvd", want: SchemeEDFVD},
		{give: "edf-vd", want: SchemeEDFVD},
		{give: "apollo", want: SchemeApollo},
		{give: "hcperf", want: SchemeHCPerf},
		{give: "hcperf-internal", want: SchemeHCPerfInternal},
		{give: "bogus", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseScheme(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseScheme(%q) err = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestBuildSchedulerUnknown(t *testing.T) {
	if _, _, err := NewScheduler(Scheme(42)); err == nil {
		t.Error("unknown scheme accepted")
	}
	for _, s := range append(AllSchemes(), SchemeHCPerfInternal) {
		sc, dyn, err := NewScheduler(s)
		if err != nil || sc == nil {
			t.Errorf("NewScheduler(%v) = %v, %v", s, sc, err)
		}
		if s.IsHCPerf() != (dyn != nil) {
			t.Errorf("scheme %v dynamic mismatch", s)
		}
	}
}

func TestCarFollowingValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  CarFollowingConfig
	}{
		{name: "no scheme", cfg: CarFollowingConfig{}},
		{name: "negative duration", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, Duration: -1}}},
		{name: "negative procs", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, NumProcs: -1}}},
		{name: "negative step", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, VehicleStep: -0.1}}},
		{name: "negative sample rate", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, SampleRate: -1}}},
		{name: "unknown rate override", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, RateOverrides: map[string]float64{"nope": 10}}}},
		{name: "rate outside range", cfg: CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, RateOverrides: map[string]float64{"camera_front": 500}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunCarFollowing(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestCarFollowingShape locks in the Fig. 13 / Table II reproduction on the
// canonical seed: HCPerf tracks best, recovers its deadline-miss ratio, and
// Apollo sustains the worst miss ratio.
func TestCarFollowingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	results := make(map[Scheme]*CarFollowingResult, 5)
	for _, s := range AllSchemes() {
		r, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: s, Seed: 1}})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		results[s] = r
		if r.Collision {
			t.Errorf("%v: unexpected collision at %v", s, r.CollisionAt)
		}
	}
	hc := results[SchemeHCPerf]
	for _, s := range BaselineSchemes() {
		if hc.SpeedErrRMS >= results[s].SpeedErrRMS {
			t.Errorf("HCPerf speed RMS %.3f not better than %v's %.3f",
				hc.SpeedErrRMS, s, results[s].SpeedErrRMS)
		}
	}
	if hc.Miss.MeanRatio() > 0.01 {
		t.Errorf("HCPerf overall miss ratio %.3f, want <= 0.01", hc.Miss.MeanRatio())
	}
	if ap := results[SchemeApollo].Miss.MeanRatio(); ap < 0.03 {
		t.Errorf("Apollo miss ratio %.3f, want sustained misses (>= 0.03)", ap)
	}
	// HCPerf's miss ratio recovers after the load step (Fig. 13(d)).
	for i := 85; i < 90; i++ {
		if r := hc.Miss.Ratio(i); r > 0.02 {
			t.Errorf("HCPerf miss ratio %.3f at t=%d, want recovered (~0)", r, i)
		}
	}
}

// TestCarFollowingAblation locks in the Fig. 18 ablation: the full
// framework beats internal-only, which still beats EDF.
func TestCarFollowingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	full, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	internal, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerfInternal, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	edf, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if full.SpeedErrRMS >= internal.SpeedErrRMS {
		t.Errorf("full %.3f not better than internal-only %.3f", full.SpeedErrRMS, internal.SpeedErrRMS)
	}
	if internal.SpeedErrRMS >= edf.SpeedErrRMS {
		t.Errorf("internal-only %.3f not better than EDF %.3f", internal.SpeedErrRMS, edf.SpeedErrRMS)
	}
}

func TestCarFollowingDeterminism(t *testing.T) {
	run := func() *CarFollowingResult {
		r, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: 3, Duration: 20}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.SpeedErrRMS != b.SpeedErrRMS || a.DistErrRMS != b.DistErrRMS ||
		a.EngineStats.ControlCommands != b.EngineStats.ControlCommands {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a.EngineStats, b.EngineStats)
	}
}

func TestCarFollowingSeriesPresent(t *testing.T) {
	r, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: 1, Duration: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"lead_speed", "follow_speed", "speed_err", "dist_err", "gap",
		"miss_ratio", "throughput", "response_ms", "discomfort",
		"queue_len", "utilization", "gamma", "u",
	} {
		s := r.Rec.Series(name)
		if s == nil || s.Len() == 0 {
			t.Errorf("series %q missing or empty", name)
		}
	}
	// Baselines do not record coordinator series.
	r2, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeEDF, Seed: 1, Duration: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rec.Series("gamma") != nil {
		t.Error("EDF run recorded a gamma series")
	}
	if names := r2.Rec.Names(); len(names) != 13 {
		t.Errorf("EDF run recorded %d series %v, want 13", len(names), names)
	}
}

// TestSeriesPresized runs each plant's family under HCPerf at its default
// duration and at 4.6 s, where the 10 ms dynamics ticker and the 100 ms
// control ticker each fire once more than the quotient's floor (460 and 46
// times): every series it records was presized from the run's duration
// and periods, so it never grew and holds at most two unused rows.
func TestSeriesPresized(t *testing.T) {
	for _, d := range []float64{0, 4.6} {
		cf, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: 1, Duration: d}})
		if err != nil {
			t.Fatal(err)
		}
		lk, err := RunLaneKeeping(Loop{Scheme: SchemeHCPerf, Seed: 1, Duration: d})
		if err != nil {
			t.Fatal(err)
		}
		cb, err := RunCombined(Loop{Scheme: SchemeHCPerf, Seed: 1, Duration: d})
		if err != nil {
			t.Fatal(err)
		}
		mo, err := RunMotivation(Loop{Scheme: SchemeHCPerf, Seed: 1, Duration: d})
		if err != nil {
			t.Fatal(err)
		}
		for family, rec := range map[string]*trace.Recorder{
			"carfollow": cf.Rec, "lanekeep": lk.Rec, "combined": cb.Rec, "motivation": mo.Rec,
		} {
			for _, name := range rec.Names() {
				s := rec.Series(name).Samples
				if cap(s)-len(s) > 2 {
					t.Errorf("%s at duration %v: %s holds %d samples in capacity %d", family, d, name, len(s), cap(s))
				}
			}
		}
	}
}

// TestStreamedRMSMatchesSeries pins the tracking-error sums a car-following
// run keeps as it goes, which are all a fleet vehicle reports: SpeedErrRMS
// and DistErrRMS equal the RMS of the recorded speed_err and dist_err
// series over [0, Duration) bit for bit, under three schemes at three
// seeds and for the shipped fusion-overload spec.
func TestStreamedRMSMatchesSeries(t *testing.T) {
	var cfgs []CarFollowingConfig
	for _, scheme := range []Scheme{SchemeHCPerf, SchemeEDF, SchemeApollo} {
		for seed := int64(1); seed <= 3; seed++ {
			cfgs = append(cfgs, CarFollowingConfig{Loop: Loop{Scheme: scheme, Seed: seed, Duration: 30}})
		}
	}
	spec, err := DecodeSpec(bytes.NewReader(specs.FusionOverload))
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	overload, err := CarFollowingConfigFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, overload)
	for _, cfg := range cfgs {
		r, err := RunCarFollowing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			series string
			got    float64
		}{{"speed_err", r.SpeedErrRMS}, {"dist_err", r.DistErrRMS}} {
			want := r.Rec.Series(c.series).RMS(0, cfg.Duration)
			if math.Float64bits(c.got) != math.Float64bits(want) || want == 0 {
				t.Errorf("%v seed %d: streamed %s RMS %v, series RMS %v", cfg.Scheme, cfg.Seed, c.series, c.got, want)
			}
		}
	}
}

// TestAttachedLoopsDoNotAlias attaches three car-following loops, each with
// its own recorder, to one queue: every recorder must write the CSV of an
// independent RunCarFollowing with the same seed, byte for byte, and every
// result must carry its tracking-error RMS bit for bit. Any state leaking
// between loops on a shared clock (an engine slice, a solver scratch
// buffer, an RNG, a history) breaks this.
func TestAttachedLoopsDoNotAlias(t *testing.T) {
	const duration = 5
	seeds := []int64{101, 202, 303}
	q := simtime.NewEventQueue()
	recs := make([]*trace.Recorder, len(seeds))
	runs := make([]*CarFollowingRun, len(seeds))
	for i, seed := range seeds {
		recs[i] = trace.NewRecorder()
		var err error
		runs[i], err = AttachCarFollowing(q, CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: seed, Duration: duration}}, recs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	q.RunUntil(duration)
	for i, seed := range seeds {
		single, err := RunCarFollowing(CarFollowingConfig{Loop: Loop{Scheme: SchemeHCPerf, Seed: seed, Duration: duration}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := csvDigest(t, recs[i]), csvDigest(t, single.Rec); got != want {
			t.Errorf("loop %d (seed %d): shared-queue series digest %x != independent run %x", i, seed, got, want)
		}
		got := runs[i].Finish()
		if math.Float64bits(got.SpeedErrRMS) != math.Float64bits(single.SpeedErrRMS) ||
			math.Float64bits(got.DistErrRMS) != math.Float64bits(single.DistErrRMS) {
			t.Errorf("loop %d (seed %d): RMS %v/%v != independent run %v/%v", i, seed,
				got.SpeedErrRMS, got.DistErrRMS, single.SpeedErrRMS, single.DistErrRMS)
		}
	}
}

// csvDigest hashes a recorder's full CSV rendering.
func csvDigest(t *testing.T, rec *trace.Recorder) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func TestLaneKeepingValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Loop
	}{
		{name: "no scheme", cfg: Loop{}},
		{name: "negative duration", cfg: Loop{Scheme: SchemeEDF, Duration: -5}},
		{name: "negative procs", cfg: Loop{Scheme: SchemeEDF, NumProcs: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunLaneKeeping(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestLaneKeepingShape locks in the Fig. 14 / Table IV reproduction on the
// canonical seed: HCPerf keeps the lane best and Apollo worst, with the
// offset error appearing at the turns.
func TestLaneKeepingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	results := make(map[Scheme]*LaneKeepingResult, 5)
	for _, s := range AllSchemes() {
		r, err := RunLaneKeeping(Loop{Scheme: s, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		results[s] = r
	}
	hc := results[SchemeHCPerf]
	for _, s := range BaselineSchemes() {
		if hc.OffsetRMS >= results[s].OffsetRMS {
			t.Errorf("HCPerf offset RMS %.4f not better than %v's %.4f",
				hc.OffsetRMS, s, results[s].OffsetRMS)
		}
	}
	if ap := results[SchemeApollo]; ap.OffsetRMS <= results[SchemeEDF].OffsetRMS {
		t.Errorf("Apollo %.4f not worse than EDF %.4f", ap.OffsetRMS, results[SchemeEDF].OffsetRMS)
	}
	// Straights are error-free: the first 15 s precede the first turn.
	if rms := hc.Rec.Series("offset").RMS(2, 15); rms > 0.002 {
		t.Errorf("offset RMS %.4f on the opening straight, want ~0", rms)
	}
}

func TestMotivationValidation(t *testing.T) {
	if _, err := RunMotivation(Loop{}); err == nil {
		t.Error("no scheme accepted")
	}
}

// TestMotivationCrash locks in the Fig. 4 reproduction: under Apollo's
// static-priority scheduling the red-light scenario ends in a collision,
// with the deadline-miss ratio ramping up after the braking starts.
func TestMotivationCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	r, err := RunMotivation(Loop{Scheme: SchemeApollo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Collision {
		t.Fatal("no collision in the motivation scenario")
	}
	if r.CollisionAt < 10 || r.CollisionAt > 28 {
		t.Errorf("collision at %.1f s, want mid-scenario (paper: 23.4 s)", r.CollisionAt)
	}
	// Misses negligible before the brake, heavy afterwards (Fig. 4(a)).
	early := 0.0
	for i := 0; i < 4; i++ {
		early += r.Miss.Ratio(i) / 4
	}
	late := 0.0
	for i := 12; i < 20; i++ {
		late += r.Miss.Ratio(i) / 8
	}
	if early > 0.02 {
		t.Errorf("early miss ratio %.3f, want ~0", early)
	}
	if late < 0.1 {
		t.Errorf("late miss ratio %.3f, want heavy (>= 0.1)", late)
	}
}

// TestHardwareShape locks in the Table V/VI reproduction: on the noisy
// scaled-car testbed HCPerf has the lowest speed error and the baselines
// sustain misses.
func TestHardwareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	results := make(map[Scheme]*CarFollowingResult, 5)
	for _, s := range AllSchemes() {
		cfg, err := HardwareCarFollowingConfig(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunCarFollowing(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		results[s] = r
	}
	hc := results[SchemeHCPerf]
	for _, s := range BaselineSchemes() {
		if hc.SpeedErrRMS >= results[s].SpeedErrRMS {
			t.Errorf("HCPerf hardware speed RMS %.4f not better than %v's %.4f",
				hc.SpeedErrRMS, s, results[s].SpeedErrRMS)
		}
	}
	if results[SchemeApollo].Miss.MeanRatio() < 0.02 {
		t.Error("Apollo should sustain misses on the hardware testbed")
	}
}

// TestJamResponsiveness locks in the Fig. 16/17 shape: the gap error spikes
// when the jam hits and HCPerf mitigates it while keeping post-jam
// discomfort lower than EDF's.
func TestJamResponsiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	run := func(s Scheme) *CarFollowingResult {
		cfg, err := JamCarFollowingConfig(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunCarFollowing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hc := run(SchemeHCPerf)
	edf := run(SchemeEDF)
	gap := hc.Rec.Series("dist_err")
	if pre := gap.RMS(0, 9); pre > 0.5 {
		t.Errorf("pre-jam gap error %.2f, want ~0", pre)
	}
	if jam := gap.RMS(10, 20); jam < 1 {
		t.Errorf("jam gap error %.2f, want a pronounced spike", jam)
	}
	// Post-jam comfort: HCPerf restores throughput and smoothness.
	hcD := hc.Rec.Series("discomfort").Mean(28, 35)
	edfD := edf.Rec.Series("discomfort").Mean(28, 35)
	if hcD >= edfD {
		t.Errorf("HCPerf post-jam discomfort %.2f not lower than EDF's %.2f", hcD, edfD)
	}
}

func TestPresetsIndependentOfSchemes(t *testing.T) {
	a, err := HardwareCarFollowingConfig(SchemeEDF, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheme != SchemeEDF || a.Seed != 9 || a.Duration != 20 {
		t.Errorf("hardware preset fields wrong: %+v", a)
	}
	if a.Longitudinal != vehicle.ScaledCarLongitudinal() {
		t.Error("hardware preset should use the scaled-car plant")
	}
	j, err := JamCarFollowingConfig(SchemeHCPerf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !j.TrackGapError {
		t.Error("jam preset must track the gap error")
	}
	if j.Obstacles(15) <= j.Obstacles(5) {
		t.Error("jam preset obstacles must grow during the jam")
	}
}

func TestCombinedValidation(t *testing.T) {
	if _, err := RunCombined(Loop{}); err == nil {
		t.Error("no scheme accepted")
	}
	if _, err := RunCombined(Loop{Scheme: SchemeEDF, Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestCombinedDualControl locks in the dual-sink extension: both control
// sinks emit commands at the pipeline cadence, HCPerf keeps the lane best,
// and Apollo pays for its static binding.
func TestCombinedDualControl(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	results := make(map[Scheme]*CombinedResult, 3)
	for _, s := range []Scheme{SchemeEDF, SchemeApollo, SchemeHCPerf} {
		r, err := RunCombined(Loop{Scheme: s, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		results[s] = r
		if r.LonCommands == 0 || r.LatCommands == 0 {
			t.Errorf("%v: a control sink is silent (lon=%d lat=%d)", s, r.LonCommands, r.LatCommands)
		}
	}
	hc := results[SchemeHCPerf]
	if hc.OffsetRMS >= results[SchemeApollo].OffsetRMS {
		t.Errorf("HCPerf offset %.4f not better than Apollo's %.4f",
			hc.OffsetRMS, results[SchemeApollo].OffsetRMS)
	}
	if hc.Miss.MeanRatio() > 0.02 {
		t.Errorf("HCPerf miss ratio %.3f, want <= 0.02", hc.Miss.MeanRatio())
	}
	if results[SchemeApollo].Miss.MeanRatio() < 0.02 {
		t.Error("Apollo should sustain misses in the combined scenario")
	}
}
