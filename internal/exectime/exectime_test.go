package exectime

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hcperf/internal/simtime"
)

func TestConstant(t *testing.T) {
	m := Constant(0.02)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if got := m.Sample(rng, simtime.Time(i), NominalScene()); got != 0.02 {
			t.Fatalf("Sample = %v, want 0.02", got)
		}
	}
	if m.Nominal() != 0.02 {
		t.Errorf("Nominal = %v, want 0.02", m.Nominal())
	}
}

func TestTruncNormal(t *testing.T) {
	if _, err := NewTruncNormal(0.02, 0.005, 0.01, 0.05); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTruncNormal(0.02, -1, 0.01, 0.05); err == nil {
		t.Error("negative SD accepted")
	}
	if _, err := NewTruncNormal(0.2, 0.01, 0.01, 0.05); err == nil {
		t.Error("mean outside range accepted")
	}
	if _, err := NewTruncNormal(0.02, 0.01, 0.05, 0.01); err == nil {
		t.Error("inverted range accepted")
	}

	m, err := NewTruncNormal(0.02, 0.004, 0.012, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		d := m.Sample(rng, 0, NominalScene())
		if d < 0.012 || d > 0.06 {
			t.Fatalf("sample %v escaped truncation [0.012,0.06]", d)
		}
	}
	if m.Nominal() != 0.02 {
		t.Errorf("Nominal = %v, want 0.02", m.Nominal())
	}
	zero := TruncNormal{Mean: 0.02, SD: 0, Lo: 0.01, Hi: 0.05}
	if got := zero.Sample(rng, 0, NominalScene()); got != 0.02 {
		t.Errorf("zero-SD sample = %v, want mean", got)
	}
}

func TestFusionScalesWithObstacles(t *testing.T) {
	m, err := NewFusion(0.005, 1e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	few := m.Sample(rng, 0, Scene{Obstacles: 5, LoadFactor: 1})
	many := m.Sample(rng, 0, Scene{Obstacles: 20, LoadFactor: 1})
	if many <= few {
		t.Errorf("fusion time with 20 obstacles (%v) not greater than with 5 (%v)", many, few)
	}
	// O(n^3): 4x obstacles => 64x the matching portion.
	wantMany := 0.005 + 1e-6*8000
	if math.Abs(float64(many)-wantMany) > 1e-12 {
		t.Errorf("fusion(20) = %v, want %v", many, wantMany)
	}
	// Load factor doubles the whole cost.
	loaded := m.Sample(rng, 0, Scene{Obstacles: 5, LoadFactor: 2})
	if math.Abs(float64(loaded)-2*float64(few)) > 1e-12 {
		t.Errorf("loaded sample %v, want %v", loaded, 2*few)
	}
	// Zero load factor treated as nominal.
	unset := m.Sample(rng, 0, Scene{Obstacles: 5})
	if unset != few {
		t.Errorf("zero LoadFactor sample %v, want %v", unset, few)
	}
}

func TestFusionValidation(t *testing.T) {
	if _, err := NewFusion(-1, 0, 0); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := NewFusion(0, -1, 0); err == nil {
		t.Error("negative per-op accepted")
	}
	if _, err := NewFusion(0, 0, 1.5); err == nil {
		t.Error("jitter >= 1 accepted")
	}
}

func TestFusionJitterBounded(t *testing.T) {
	m, err := NewFusion(0.01, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		d := m.Sample(rng, 0, Scene{Obstacles: 0, LoadFactor: 1})
		if d < 0.009-1e-12 || d > 0.011+1e-12 {
			t.Fatalf("jittered sample %v outside [0.009,0.011]", d)
		}
	}
}

func TestProfile(t *testing.T) {
	inner := Constant(0.020)
	p, err := NewProfile(inner, []Step{{From: 10, To: 80, Factor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	scene := NominalScene()
	tests := []struct {
		at   simtime.Time
		want simtime.Duration
	}{
		{at: 0, want: 0.020},
		{at: 9.999, want: 0.020},
		{at: 10, want: 0.040},
		{at: 79.999, want: 0.040},
		{at: 80, want: 0.020},
	}
	for _, tt := range tests {
		if got := p.Sample(rng, tt.at, scene); math.Abs(float64(got-tt.want)) > 1e-12 {
			t.Errorf("Sample(at=%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	if p.Nominal() != 0.020 {
		t.Errorf("Nominal = %v, want inner nominal", p.Nominal())
	}
}

func TestProfileOverlappingStepsMultiply(t *testing.T) {
	p, err := NewProfile(Constant(0.01), []Step{
		{From: 0, To: 10, Factor: 2},
		{From: 5, To: 10, Factor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FactorAt(7); got != 6 {
		t.Errorf("FactorAt(7) = %v, want 6", got)
	}
	if got := p.FactorAt(2); got != 2 {
		t.Errorf("FactorAt(2) = %v, want 2", got)
	}
}

func TestProfileValidation(t *testing.T) {
	if _, err := NewProfile(nil, nil); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewProfile(Constant(1), []Step{{From: 5, To: 5, Factor: 2}}); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := NewProfile(Constant(1), []Step{{From: 0, To: 5, Factor: 0}}); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestProfileCopiesSteps(t *testing.T) {
	steps := []Step{{From: 0, To: 1, Factor: 2}}
	p, err := NewProfile(Constant(1), steps)
	if err != nil {
		t.Fatal(err)
	}
	steps[0].Factor = 100
	if got := p.FactorAt(0.5); got != 2 {
		t.Errorf("profile affected by caller mutation: factor %v, want 2", got)
	}
}

// Property: all models produce non-negative samples for arbitrary scenes
// and times.
func TestQuickSamplesNonNegative(t *testing.T) {
	fusion, err := NewFusion(0.002, 1e-7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTruncNormal(0.02, 0.01, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{Constant(0.01), tn, fusion}
	f := func(seed int64, obstacles uint8, load uint8, at uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		scene := Scene{Obstacles: int(obstacles), LoadFactor: float64(load) / 16}
		for _, m := range models {
			if m.Sample(rng, simtime.Time(at), scene) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: profile factors are always the product of active steps and
// samples scale accordingly for a deterministic inner model.
func TestQuickProfileScaling(t *testing.T) {
	f := func(at uint16) bool {
		p, err := NewProfile(Constant(0.01), []Step{
			{From: 10, To: 80, Factor: 2},
			{From: 40, To: 60, Factor: 1.5},
		})
		if err != nil {
			return false
		}
		tm := simtime.Time(float64(at) / 100)
		rng := rand.New(rand.NewSource(1))
		got := p.Sample(rng, tm, NominalScene())
		want := simtime.Duration(0.01 * p.FactorAt(tm))
		return math.Abs(float64(got-want)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
