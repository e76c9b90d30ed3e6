package mfc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

func controller(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "alpha positive", mutate: func(c *Config) { c.Alpha = 1 }},
		{name: "alpha zero", mutate: func(c *Config) { c.Alpha = 0 }},
		{name: "K positive", mutate: func(c *Config) { c.K = 1 }},
		{name: "Ts zero", mutate: func(c *Config) { c.Ts = 0 }},
		{name: "window below Ts", mutate: func(c *Config) { c.ADEWindow = c.Ts / 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

// ADE must recover the slope of a linear signal E(t) = a + b·t exactly
// (the weighted integral annihilates the constant term).
func TestADELinearSignal(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
	}{
		{name: "pure slope", a: 0, b: 2},
		{name: "offset slope", a: 5, b: -3},
		{name: "constant", a: 7, b: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := controller(t, DefaultConfig())
			var now simtime.Time
			for i := 0; i < 20; i++ {
				now = simtime.Time(i) * 50 * ms
				if _, err := c.Step(now, tt.a+tt.b*float64(now)); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.LastDerivative(); math.Abs(got-tt.b) > 0.02*math.Max(1, math.Abs(tt.b)) {
				t.Errorf("ADE derivative = %v, want %v", got, tt.b)
			}
		})
	}
}

// ADE must attenuate zero-mean noise: the derivative estimate of a noisy
// constant stays near zero while a finite difference would blow up.
func TestADEAttenuatesNoise(t *testing.T) {
	c := controller(t, DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	noiseAmp := 0.5
	var last float64
	var prevE float64
	var maxFD float64
	for i := 0; i < 100; i++ {
		now := simtime.Time(i) * 50 * ms
		e := 3.0 + noiseAmp*(2*rng.Float64()-1)
		if i > 0 {
			fd := math.Abs(e-prevE) / 0.05
			if fd > maxFD {
				maxFD = fd
			}
		}
		prevE = e
		if _, err := c.Step(now, e); err != nil {
			t.Fatal(err)
		}
		last = c.LastDerivative()
	}
	if math.Abs(last) > 3 {
		t.Errorf("ADE derivative %v too large for noisy constant", last)
	}
	if maxFD < 10 {
		t.Fatalf("test precondition failed: finite difference %v should be large", maxFD)
	}
}

// Positive persistent tracking error must drive u upward (the paper's
// responsiveness direction), negative error must drive it downward.
func TestControlDirection(t *testing.T) {
	tests := []struct {
		name string
		sign float64
	}{
		{name: "positive error raises u", sign: 1},
		{name: "negative error lowers u", sign: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := controller(t, DefaultConfig())
			var u float64
			var err error
			for i := 0; i < 30; i++ {
				now := simtime.Time(i) * 100 * ms
				u, err = c.Step(now, tt.sign*2.0)
				if err != nil {
					t.Fatal(err)
				}
			}
			if tt.sign > 0 && u <= 0 {
				t.Errorf("u = %v after sustained positive error, want > 0", u)
			}
			if tt.sign < 0 && u >= 0 {
				t.Errorf("u = %v after sustained negative error, want < 0", u)
			}
		})
	}
}

// With zero error the controller output must stay at zero.
func TestZeroErrorZeroOutput(t *testing.T) {
	c := controller(t, DefaultConfig())
	for i := 0; i < 20; i++ {
		u, err := c.Step(simtime.Time(i)*100*ms, 0)
		if err != nil {
			t.Fatal(err)
		}
		if u != 0 {
			t.Fatalf("u = %v with zero error at step %d, want 0", u, i)
		}
	}
}

// u accumulates: after the error clears, u stops growing (Δu ∝ K·E/α).
func TestUStabilisesWhenErrorClears(t *testing.T) {
	c := controller(t, DefaultConfig())
	var now simtime.Time
	for i := 0; i < 20; i++ {
		now = simtime.Time(i) * 100 * ms
		if _, err := c.Step(now, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	uLoaded := c.LastU()
	var uAfter float64
	for i := 20; i < 60; i++ {
		now = simtime.Time(i) * 100 * ms
		var err error
		uAfter, err = c.Step(now, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if uLoaded <= 0 {
		t.Fatalf("u = %v after sustained error, want > 0", uLoaded)
	}
	// After the error window flushes, increments must be ~0.
	u1 := uAfter
	u2, err := c.Step(now+100*ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u2-u1) > 1e-6 {
		t.Errorf("u still moving (%v -> %v) after error cleared", u1, u2)
	}
}

func TestStepRejectsTimeTravel(t *testing.T) {
	c := controller(t, DefaultConfig())
	if _, err := c.Step(1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(0.5, 0.5); err == nil {
		t.Error("backwards time accepted")
	}
}

// Property: the ADE estimate of a·t + b sampled on an arbitrary regular
// grid converges to a.
func TestQuickADERecoversSlope(t *testing.T) {
	f := func(aRaw, bRaw int8, stepRaw uint8) bool {
		a := float64(aRaw) / 8
		b := float64(bRaw) / 4
		step := simtime.Duration(float64(stepRaw%40)+10) * ms
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		var now simtime.Time
		for i := 0; i < 40; i++ {
			now = simtime.Time(i) * step
			if _, err := c.Step(now, b+a*float64(now)); err != nil {
				return false
			}
		}
		return math.Abs(c.LastDerivative()-a) <= 0.03*math.Max(1, math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: u is finite for bounded inputs.
func TestQuickUFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			u, err := c.Step(simtime.Time(i)*100*ms, 10*(2*rng.Float64()-1))
			if err != nil || math.IsNaN(u) || math.IsInf(u, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
