package core

import (
	"fmt"
	"math"

	"hcperf/internal/dag"
	"hcperf/internal/mfc"
	"hcperf/internal/rate"
	"hcperf/internal/simtime"
)

// DefaultErrScale is the emergency-scale tracking error the coordinator
// assumes when a scenario does not supply its own (m/s for car following):
// MFCConfigForScale(DefaultErrScale, γmax) is the MFC configuration a
// zero-valued Config resolves to.
const DefaultErrScale = 2

// Tunables is the coordinator parameter set the paper hand-picks and the
// search subsystem (internal/search) explores: one struct owns the knobs
// that used to be scattered across scenario constructors and package
// defaults, so the search space and the scenarios read the same values.
//
// The zero value of any field means "paper default" (see DefaultTunables);
// Resolved fills the gaps. All five knobs only take effect under the HCPerf
// schemes — baselines have no coordinator to tune, though RMinScale and
// RMaxScale still reshape the graph's allowable rate bands. The γ cap is not
// among them: it belongs to the scheduler (sched.Dynamic.GammaCap), and
// MFCConfig takes it as an argument.
type Tunables struct {
	// MFCWindow is T_ADE, the Performance Directed Controller's
	// derivative-estimation window (500 ms when zero). It must cover at
	// least one MFC sampling period (100 ms).
	MFCWindow simtime.Duration
	// RateKp0 is the Task Rate Adapter's initial proportional gain
	// (rate.DefaultConfig().Kp0 when zero).
	RateKp0 float64
	// RateDecay is the adapter's per-stable-period multiplicative gain
	// decay, in (0,1) (rate.DefaultConfig().Decay when zero).
	RateDecay float64
	// RMinScale and RMaxScale multiply every adjustable source task's
	// MinRate/MaxRate band (r_min, r_max in the paper's Eq. 13 clamp),
	// narrowing or widening the range the rate adapter may move in.
	// 1 (or zero = default) leaves the graph untouched; a task's current
	// rate is clamped into the scaled band.
	RMinScale float64
	RMaxScale float64
}

// DefaultTunables returns the paper's hand-picked coordinator settings —
// the values every scenario ran with before tunables became explicit. The
// defaults are read from their owning packages so they cannot drift.
func DefaultTunables() Tunables {
	rc := rate.DefaultConfig()
	return Tunables{
		MFCWindow: mfc.DefaultConfig().ADEWindow,
		RateKp0:   rc.Kp0,
		RateDecay: rc.Decay,
		RMinScale: 1,
		RMaxScale: 1,
	}
}

// Resolved fills zero fields with the paper defaults and validates the
// result. A fully zero Tunables resolves to DefaultTunables exactly, so
// existing configurations are unchanged byte-for-byte.
func (t Tunables) Resolved() (Tunables, error) {
	d := DefaultTunables()
	if t.MFCWindow == 0 {
		t.MFCWindow = d.MFCWindow
	}
	if t.RateKp0 == 0 {
		t.RateKp0 = d.RateKp0
	}
	if t.RateDecay == 0 {
		t.RateDecay = d.RateDecay
	}
	if t.RMinScale == 0 {
		t.RMinScale = d.RMinScale
	}
	if t.RMaxScale == 0 {
		t.RMaxScale = d.RMaxScale
	}
	return t, t.validate()
}

func (t Tunables) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rate Kp0", t.RateKp0},
		{"r_min scale", t.RMinScale},
		{"r_max scale", t.RMaxScale},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("core: %s must be a positive finite value, got %v", f.name, f.v)
		}
	}
	if t.MFCWindow <= 0 {
		return fmt.Errorf("core: MFC window must be positive, got %v", t.MFCWindow)
	}
	if math.IsNaN(t.RateDecay) || t.RateDecay <= 0 || t.RateDecay >= 1 {
		return fmt.Errorf("core: rate decay %v outside (0,1)", t.RateDecay)
	}
	return nil
}

// MFCConfig builds the Performance Directed Controller configuration for a
// driving application whose emergency-scale tracking error is errScale
// (<= 0 selects DefaultErrScale), under the scheduler's γ cap gammaCap and
// this tunable set's ADE window.
func (t Tunables) MFCConfig(errScale, gammaCap float64) mfc.Config {
	if errScale <= 0 {
		errScale = DefaultErrScale
	}
	cfg := MFCConfigForScale(errScale, gammaCap)
	cfg.ADEWindow = t.MFCWindow
	return cfg
}

// RateConfig overlays the tunable adapter gains on the default rate-adapter
// profile. Scenarios with a bespoke profile (lane keeping) keep it — the
// overlay only applies where the profile is the paper default.
func (t Tunables) RateConfig() rate.Config {
	cfg := rate.DefaultConfig()
	cfg.Kp0 = t.RateKp0
	cfg.Decay = t.RateDecay
	return cfg
}

// ApplyRateBounds rescales every adjustable source task's [MinRate,
// MaxRate] band in place by RMinScale/RMaxScale and clamps the task's
// current rate into the scaled band. Fixed-rate sources (MaxRate == 0) are
// untouched; both scales at 1 is a guaranteed no-op. The graph is
// re-validated after the rewrite.
func (t Tunables) ApplyRateBounds(g *dag.Graph) error {
	if t.RMinScale == 1 && t.RMaxScale == 1 {
		return nil
	}
	for _, task := range g.Sources() {
		if task.MaxRate <= 0 {
			continue
		}
		lo, hi := task.MinRate*t.RMinScale, task.MaxRate*t.RMaxScale
		if lo > hi {
			return fmt.Errorf("core: scaled rate band [%v,%v] inverted for task %q (scales %v/%v)",
				lo, hi, task.Name, t.RMinScale, t.RMaxScale)
		}
		task.MinRate, task.MaxRate = lo, hi
		if task.Rate < lo {
			task.Rate = lo
		}
		if task.Rate > hi {
			task.Rate = hi
		}
	}
	return g.Validate()
}
