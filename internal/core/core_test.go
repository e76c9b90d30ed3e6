package core

import (
	"testing"

	"hcperf/internal/mfc"

	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/rate"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

type harness struct {
	q    *simtime.EventQueue
	g    *dag.Graph
	dyn  *sched.Dynamic
	eng  *engine.Engine
	coor *Coordinator
}

// newHarness builds a motivation-graph engine coordinated by HCPerf with a
// caller-supplied tracking-error source.
func newHarness(t *testing.T, cfg Config, trkErr TrackingErrorFunc) *harness {
	t.Helper()
	q := simtime.NewEventQueue()
	g, err := dag.MotivationGraph()
	if err != nil {
		t.Fatal(err)
	}
	dyn := sched.NewDynamic(0.02)
	eng, err := engine.New(engine.Config{
		Graph:     g,
		Scheduler: dyn,
		NumProcs:  2,
		Queue:     q,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = eng
	cfg.Dynamic = dyn
	cfg.TrackingError = trkErr
	coor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := coor.Start(q); err != nil {
		t.Fatal(err)
	}
	return &harness{q: q, g: g, dyn: dyn, eng: eng, coor: coor}
}

func constErr(v float64) TrackingErrorFunc {
	return func(simtime.Time) float64 { return v }
}

func TestConfigValidation(t *testing.T) {
	q := simtime.NewEventQueue()
	g, err := dag.MotivationGraph()
	if err != nil {
		t.Fatal(err)
	}
	dyn := sched.NewDynamic(0.02)
	eng, err := engine.New(engine.Config{Graph: g, Scheduler: dyn, NumProcs: 2, Queue: q, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{Backend: eng, Dynamic: dyn, TrackingError: constErr(0)}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil engine", mutate: func(c *Config) { c.Backend = nil }},
		{name: "nil dynamic", mutate: func(c *Config) { c.Dynamic = nil }},
		{name: "nil tracking error", mutate: func(c *Config) { c.TrackingError = nil }},
		{name: "foreign dynamic", mutate: func(c *Config) { c.Dynamic = sched.NewDynamic(0.02) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := New(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestStartRejectsNilQueue(t *testing.T) {
	h := newHarness(t, Config{}, constErr(0))
	c, err := New(Config{Backend: h.eng, Dynamic: h.dyn, TrackingError: constErr(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(nil); err == nil {
		t.Error("Start accepted a nil event queue")
	}
}

func TestSustainedErrorRaisesU(t *testing.T) {
	var lastU, lastGamma float64
	steps := 0
	h := newHarness(t, Config{
		OnControlPeriod: func(_ simtime.Time, _, u, gamma float64) {
			lastU, lastGamma = u, gamma
			steps++
		},
	}, constErr(2.0))
	h.q.RunUntil(5)
	if steps == 0 {
		t.Fatal("internal coordinator never stepped")
	}
	if lastU <= 0 {
		t.Errorf("u = %v after sustained positive error, want > 0", lastU)
	}
	if lastGamma < 0 || lastGamma > h.dyn.GammaCap {
		t.Errorf("γ = %v outside [0, cap]", lastGamma)
	}
	if h.coor.NominalU() != lastU {
		t.Errorf("NominalU() = %v, callback saw %v", h.coor.NominalU(), lastU)
	}
}

func TestZeroErrorKeepsUZero(t *testing.T) {
	h := newHarness(t, Config{}, constErr(0))
	h.q.RunUntil(3)
	if u := h.coor.NominalU(); u != 0 {
		t.Errorf("u = %v with zero tracking error, want 0", u)
	}
}

func TestExternalRaisesRatesWhenIdle(t *testing.T) {
	adaptSteps := 0
	h := newHarness(t, Config{
		OnAdaptPeriod: func(_ simtime.Time, miss float64, _ []rate.Proposal) {
			adaptSteps++
			if miss != 0 {
				t.Errorf("unexpected misses (ratio %v) on light load", miss)
			}
		},
	}, constErr(0))
	src := h.g.TaskByName("image_preproc")
	initial := h.eng.Rate(src.ID)
	h.q.RunUntil(10)
	if adaptSteps == 0 {
		t.Fatal("external coordinator never stepped")
	}
	if got := h.eng.Rate(src.ID); got <= initial {
		t.Errorf("source rate %v did not rise from %v on a no-miss system", got, initial)
	}
}

func TestExternalShedsLoadUnderOverload(t *testing.T) {
	h := newHarness(t, Config{}, constErr(0))
	// Inflate the fusion execution time brutally mid-run via a profile so
	// the system overloads.
	fusion := h.g.TaskByName("sensor_fusion")
	prof, err := exectime.NewProfile(fusion.Exec, []exectime.Step{{From: 2, To: 1000, Factor: 6}})
	if err != nil {
		t.Fatal(err)
	}
	fusion.Exec = prof
	src := h.g.TaskByName("image_preproc")
	h.q.RunUntil(2)
	rateBefore := h.eng.Rate(src.ID)
	h.q.RunUntil(12)
	rateAfter := h.eng.Rate(src.ID)
	if rateAfter >= rateBefore {
		t.Errorf("source rate %v did not drop from %v under overload", rateAfter, rateBefore)
	}
}

func TestDisableExternalFreezesRates(t *testing.T) {
	h := newHarness(t, Config{DisableExternal: true}, constErr(0))
	src := h.g.TaskByName("image_preproc")
	initial := h.eng.Rate(src.ID)
	h.q.RunUntil(10)
	if got := h.eng.Rate(src.ID); got != initial {
		t.Errorf("rates moved to %v with external coordinator disabled", got)
	}
}

func TestOverheadRecorded(t *testing.T) {
	h := newHarness(t, Config{}, constErr(1))
	h.q.RunUntil(3)
	oh := h.coor.Overhead()
	if oh.N() == 0 {
		t.Fatal("no overhead samples recorded")
	}
	// Paper §VII-E: well under 5 ms per coordination step.
	if oh.Mean() > 0.005 {
		t.Errorf("mean coordinator overhead %v s exceeds 5 ms", oh.Mean())
	}
}

func TestSecondStartRejected(t *testing.T) {
	h := newHarness(t, Config{}, constErr(1))
	if err := h.coor.Start(h.q); err == nil {
		t.Error("second Start accepted")
	}
}

func TestAdapterKpVisible(t *testing.T) {
	h := newHarness(t, Config{}, constErr(0))
	if h.coor.AdapterKp() != rate.DefaultConfig().Kp0 {
		t.Errorf("initial Kp = %v, want Kp0", h.coor.AdapterKp())
	}
	h.q.RunUntil(1)
	_ = h.coor.Gamma() // must not panic before/after steps
}

func TestControlPeriodDefaultsToTs(t *testing.T) {
	var times []simtime.Time
	h := newHarness(t, Config{
		OnControlPeriod: func(now simtime.Time, _, _, _ float64) { times = append(times, now) },
	}, constErr(0))
	h.q.RunUntil(0.55)
	if len(times) < 4 {
		t.Fatalf("only %d control periods in 0.55s, want >= 4 at Ts=100ms", len(times))
	}
	if dt := times[1] - times[0]; dt < 99*ms || dt > 101*ms {
		t.Errorf("control period %v, want 100ms", dt)
	}
}

func TestMFCConfigForScale(t *testing.T) {
	cfg := MFCConfigForScale(2, 0.02)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if cfg.Alpha >= 0 {
		t.Errorf("alpha %v not negative", cfg.Alpha)
	}
	if cfg.UClamp != 0.04 {
		t.Errorf("UClamp = %v, want 2*cap", cfg.UClamp)
	}
	// A ten-times-smaller error scale produces a ten-times-hotter alpha.
	small := MFCConfigForScale(0.2, 0.02)
	if small.Alpha*10 != cfg.Alpha {
		t.Errorf("alpha scaling broken: %v vs %v", small.Alpha, cfg.Alpha)
	}
	// Degenerate inputs fall back to safe defaults.
	if got := MFCConfigForScale(0, 0); got.Validate() != nil {
		t.Errorf("fallback config invalid: %v", got.Validate())
	}
}

func TestOnAdaptPeriodObserves(t *testing.T) {
	var observedMiss []float64
	var proposalsSeen int
	h := newHarness(t, Config{
		OnAdaptPeriod: func(_ simtime.Time, miss float64, props []rate.Proposal) {
			observedMiss = append(observedMiss, miss)
			proposalsSeen += len(props)
		},
	}, constErr(0))
	h.q.RunUntil(5)
	if len(observedMiss) < 4 {
		t.Fatalf("adapt callback fired %d times in 5s at 1 Hz, want >= 4", len(observedMiss))
	}
	if proposalsSeen == 0 {
		t.Error("no rate proposals observed")
	}
	for _, m := range observedMiss {
		if m < 0 || m > 1 {
			t.Errorf("observed miss ratio %v outside [0,1]", m)
		}
	}
}

func TestCustomPeriods(t *testing.T) {
	var controlTimes, adaptTimes []simtime.Time
	h := newHarness(t, Config{
		ControlPeriod: 50 * ms,
		AdaptPeriod:   500 * ms,
		OnControlPeriod: func(now simtime.Time, _, _, _ float64) {
			controlTimes = append(controlTimes, now)
		},
		OnAdaptPeriod: func(now simtime.Time, _ float64, _ []rate.Proposal) {
			adaptTimes = append(adaptTimes, now)
		},
	}, constErr(0))
	h.q.RunUntil(1.01)
	if len(controlTimes) < 19 {
		t.Errorf("%d control periods in ~1s at 50ms, want >= 19", len(controlTimes))
	}
	if len(adaptTimes) != 2 {
		t.Errorf("%d adapt periods in ~1s at 500ms, want 2", len(adaptTimes))
	}
}

func TestCustomRateConfigApplied(t *testing.T) {
	cfg := rate.DefaultConfig()
	cfg.Kp0 = 3.21
	h := newHarness(t, Config{Rate: cfg}, constErr(0))
	if got := h.coor.AdapterKp(); got != 3.21 {
		t.Errorf("AdapterKp = %v, want the custom 3.21", got)
	}
}

func TestInvalidMFCConfigRejected(t *testing.T) {
	q := simtime.NewEventQueue()
	g, err := dag.MotivationGraph()
	if err != nil {
		t.Fatal(err)
	}
	dyn := sched.NewDynamic(0.02)
	eng, err := engine.New(engine.Config{Graph: g, Scheduler: dyn, NumProcs: 2, Queue: q, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := mfc.DefaultConfig()
	bad.Alpha = 1 // must be negative
	if _, err := New(Config{Backend: eng, Dynamic: dyn, TrackingError: constErr(0), MFC: bad}); err == nil {
		t.Error("invalid MFC config accepted")
	}
	badRate := rate.DefaultConfig()
	badRate.Kp0 = -1
	if _, err := New(Config{Backend: eng, Dynamic: dyn, TrackingError: constErr(0), Rate: badRate}); err == nil {
		t.Error("invalid rate config accepted")
	}
}
