package rate

import (
	"math"
	"testing"
	"testing/quick"

	"hcperf/internal/dag"
	"hcperf/internal/simtime"
)

func source(name string, minRate, maxRate float64) *dag.Task {
	return &dag.Task{Name: name, MinRate: minRate, MaxRate: maxRate, Rate: (minRate + maxRate) / 2}
}

func adapter(t *testing.T) *Adapter {
	t.Helper()
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "negative target", mutate: func(c *Config) { c.TargetMissRatio = -0.1 }},
		{name: "target 1", mutate: func(c *Config) { c.TargetMissRatio = 1 }},
		{name: "zero epsilon", mutate: func(c *Config) { c.Epsilon = 0 }},
		{name: "zero kp", mutate: func(c *Config) { c.Kp0 = 0 }},
		{name: "decay 1", mutate: func(c *Config) { c.Decay = 1 }},
		{name: "zero band", mutate: func(c *Config) { c.StableBand = 0 }},
		{name: "freeze 1", mutate: func(c *Config) { c.FreezeBelow = 1 }},
		{name: "zero reset", mutate: func(c *Config) { c.ResetThreshold = 0 }},
		{name: "ewma 0", mutate: func(c *Config) { c.ExecEWMA = 0 }},
		{name: "ewma 2", mutate: func(c *Config) { c.ExecEWMA = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestOverloadShedsLoad(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	props, err := a.Step(0.4 /* heavy misses */, map[*dag.Task]float64{src: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 {
		t.Fatalf("got %d proposals, want 1", len(props))
	}
	if props[0].NewRate >= props[0].OldRate {
		t.Errorf("rate rose from %v to %v under overload", props[0].OldRate, props[0].NewRate)
	}
	if props[0].NewRate < src.MinRate {
		t.Errorf("rate %v below MinRate %v", props[0].NewRate, src.MinRate)
	}
}

func TestUnderloadRaisesRates(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	props, err := a.Step(0 /* no misses */, map[*dag.Task]float64{src: 15})
	if err != nil {
		t.Fatal(err)
	}
	if props[0].NewRate <= props[0].OldRate {
		t.Errorf("rate did not rise with zero misses: %v -> %v", props[0].OldRate, props[0].NewRate)
	}
	if props[0].NewRate > src.MaxRate {
		t.Errorf("rate %v above MaxRate %v", props[0].NewRate, src.MaxRate)
	}
}

func TestFixedRateSourceUntouched(t *testing.T) {
	a := adapter(t)
	fixed := &dag.Task{Name: "fixed", Rate: 10} // MinRate = MaxRate = 0
	props, err := a.Step(0.5, map[*dag.Task]float64{fixed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if props[0].NewRate != 10 {
		t.Errorf("fixed-rate source adjusted to %v", props[0].NewRate)
	}
}

func TestClampingAtBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kp0 = 100 // huge gain to force saturation
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := source("cam", 10, 30)
	props, err := a.Step(1, map[*dag.Task]float64{src: 20})
	if err != nil {
		t.Fatal(err)
	}
	if props[0].NewRate != src.MinRate {
		t.Errorf("saturated shed rate = %v, want MinRate %v", props[0].NewRate, src.MinRate)
	}
	props, err = a.Step(0, map[*dag.Task]float64{src: 20})
	if err != nil {
		t.Fatal(err)
	}
	if props[0].NewRate != src.MaxRate {
		t.Errorf("saturated raise rate = %v, want MaxRate %v", props[0].NewRate, src.MaxRate)
	}
}

func TestKpDecaysWhenStable(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	kp0 := a.Kp()
	// Miss ratio right at the target: |e| = 0 <= band, Kp decays.
	for i := 0; i < 5; i++ {
		if _, err := a.Step(DefaultConfig().TargetMissRatio, map[*dag.Task]float64{src: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Kp() >= kp0 {
		t.Errorf("Kp %v did not decay from %v while stable", a.Kp(), kp0)
	}
}

func TestKpFreezesToZero(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	for i := 0; i < 200; i++ {
		if _, err := a.Step(DefaultConfig().TargetMissRatio, map[*dag.Task]float64{src: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Kp() != 0 {
		t.Errorf("Kp = %v after long stability, want 0 (frozen)", a.Kp())
	}
	// Frozen gain leaves rates unchanged even with a positive error.
	props, err := a.Step(0, map[*dag.Task]float64{src: 20})
	if err != nil {
		t.Fatal(err)
	}
	if props[0].NewRate != 20 {
		t.Errorf("frozen adapter changed rate to %v", props[0].NewRate)
	}
}

func TestKpDoesNotDecayWhileUnstable(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	kp0 := a.Kp()
	for i := 0; i < 5; i++ {
		if _, err := a.Step(0.5, map[*dag.Task]float64{src: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Kp() != kp0 {
		t.Errorf("Kp moved to %v while loop was unstable", a.Kp())
	}
}

func TestExecRegimeChangeResetsKp(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	// Stabilise to decay Kp.
	a.NoteExecTime(20 * simtime.Millisecond)
	for i := 0; i < 50; i++ {
		if _, err := a.Step(DefaultConfig().TargetMissRatio, map[*dag.Task]float64{src: 20}); err != nil {
			t.Fatal(err)
		}
		a.NoteExecTime(20 * simtime.Millisecond)
	}
	if a.Kp() != 0 {
		t.Fatalf("precondition: Kp = %v, want 0", a.Kp())
	}
	// Execution time doubles: the paper's complex-scene event.
	a.NoteExecTime(40 * simtime.Millisecond)
	if a.Kp() != DefaultConfig().Kp0 {
		t.Errorf("Kp = %v after regime change, want reset to Kp0", a.Kp())
	}
	if a.Resets() != 1 {
		t.Errorf("Resets = %d, want 1", a.Resets())
	}
}

func TestNoteExecTimeSmallDriftNoReset(t *testing.T) {
	a := adapter(t)
	a.NoteExecTime(20 * simtime.Millisecond)
	for i := 0; i < 20; i++ {
		a.NoteExecTime(simtime.Duration(20+float64(i%3)) * simtime.Millisecond)
	}
	if a.Resets() != 0 {
		t.Errorf("small drift caused %d resets", a.Resets())
	}
	a.NoteExecTime(0) // ignored
	if a.Resets() != 0 {
		t.Errorf("a zero execution time caused %d resets", a.Resets())
	}
}

func TestStepValidation(t *testing.T) {
	a := adapter(t)
	src := source("cam", 10, 30)
	if _, err := a.Step(-0.1, map[*dag.Task]float64{src: 20}); err == nil {
		t.Error("negative miss ratio accepted")
	}
	if _, err := a.Step(1.5, map[*dag.Task]float64{src: 20}); err == nil {
		t.Error("miss ratio > 1 accepted")
	}
	if _, err := a.Step(0.1, nil); err == nil {
		t.Error("empty source map accepted")
	}
	if _, err := a.Step(0.1, map[*dag.Task]float64{nil: 20}); err == nil {
		t.Error("nil source task accepted")
	}
}

// Property: proposals always stay inside the task's rate range and move in
// the direction of the error.
func TestQuickProposalsBoundedAndDirectional(t *testing.T) {
	f := func(missRaw uint8, rateRaw uint8) bool {
		a, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		miss := float64(missRaw) / 255
		src := source("s", 10, 30)
		cur := 10 + float64(rateRaw)/255*20
		props, err := a.Step(miss, map[*dag.Task]float64{src: cur})
		if err != nil || len(props) != 1 {
			return false
		}
		nr := props[0].NewRate
		if nr < src.MinRate-1e-9 || nr > src.MaxRate+1e-9 {
			return false
		}
		e := DefaultConfig().TargetMissRatio - miss
		if miss == 0 {
			e = DefaultConfig().Epsilon
		}
		switch {
		case e > 0 && nr < cur-1e-9:
			return false
		case e < 0 && nr > cur+1e-9:
			return false
		}
		return !math.IsNaN(nr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (stability, Eq. 14): iterating the closed loop with a
// proportional plant m(k+1) = clamp(m(k) + g·(r(k+1) − r(k))) converges to
// a fixed point: rates stop moving.
func TestQuickClosedLoopConverges(t *testing.T) {
	f := func(gRaw uint8, m0Raw uint8) bool {
		a, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		g := 0.001 + float64(gRaw)/255*0.01 // miss ratio per Hz
		m := float64(m0Raw) / 255 * 0.5
		src := source("s", 10, 30)
		r := 20.0
		var lastDelta float64
		for k := 0; k < 300; k++ {
			props, err := a.Step(m, map[*dag.Task]float64{src: r})
			if err != nil {
				return false
			}
			nr := props[0].NewRate
			lastDelta = math.Abs(nr - r)
			m = clamp01(m + g*(nr-r))
			r = nr
		}
		return lastDelta < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
