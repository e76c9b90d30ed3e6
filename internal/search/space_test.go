package search

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"hcperf/internal/core"
	"hcperf/internal/scenario"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

func TestDefaultSpaceNormalizes(t *testing.T) {
	sp, err := DefaultSpace().Normalize()
	if err != nil {
		t.Fatalf("DefaultSpace().Normalize(): %v", err)
	}
	again, err := sp.Normalize()
	if err != nil {
		t.Fatalf("second Normalize: %v", err)
	}
	if !reflect.DeepEqual(sp, again) {
		t.Fatalf("Normalize not idempotent:\n%+v\n%+v", sp, again)
	}
	if got, want := sp.Schemes, []string{"edf", "hcperf"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("schemes = %v, want %v", got, want)
	}
	for i := 1; i < len(sp.Params); i++ {
		if sp.Params[i-1].Name >= sp.Params[i].Name {
			t.Fatalf("params not sorted: %q before %q", sp.Params[i-1].Name, sp.Params[i].Name)
		}
	}
	if sp.Size() <= 0 {
		t.Fatalf("Size() = %d, want > 0", sp.Size())
	}
}

func TestParamLevelsAndValues(t *testing.T) {
	// Decimal ranges must quantize without off-by-one from float
	// representation.
	cases := []struct {
		p      Param
		levels int
		last   float64
	}{
		{Param{Name: ParamRateKp0, Min: 0.2, Max: 1.6, Step: 0.2}, 8, 1.6},
		{Param{Name: ParamGammaCap, Min: 0.005, Max: 0.1, Step: 0.005}, 20, 0.1},
		{Param{Name: ParamMFCWindowMS, Min: 200, Max: 1000, Step: 100}, 9, 1000},
		{Param{Name: ParamRateDecay, Min: 0.8, Max: 0.98, Step: 0.02}, 10, 0.98},
	}
	for _, c := range cases {
		if got := c.p.Levels(); got != c.levels {
			t.Errorf("%s: Levels() = %d, want %d", c.p.Name, got, c.levels)
		}
		if got := c.p.Value(c.p.Levels() - 1); math.Abs(got-c.last) > 1e-12 {
			t.Errorf("%s: last value = %v, want %v", c.p.Name, got, c.last)
		}
		// Clamped beyond the end.
		if got := c.p.Value(c.p.Levels() + 5); got != c.p.Max {
			t.Errorf("%s: over-index value = %v, want Max %v", c.p.Name, got, c.p.Max)
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	bad := []Space{
		{},
		{Params: []Param{{Name: "bogus", Min: 1, Max: 2, Step: 1}}},
		{Params: []Param{{Name: ParamGammaCap, Min: 0.01, Max: 0.005, Step: 0.001}}},
		{Params: []Param{{Name: ParamGammaCap, Min: 0.01, Max: 0.05, Step: 0}}},
		{Params: []Param{{Name: ParamGammaCap, Min: 0, Max: 0.05, Step: 0.01}}},      // below hard lower bound
		{Params: []Param{{Name: ParamGammaCap, Min: 0.01, Max: 100, Step: 0.01}}},    // above hard upper bound
		{Params: []Param{{Name: ParamGammaCap, Min: 0.001, Max: 10, Step: 1e-9}}},    // too many levels
		{Params: []Param{{Name: ParamGammaCap, Min: math.NaN(), Max: 1, Step: 0.1}}}, // non-finite
		{Params: []Param{
			{Name: ParamGammaCap, Min: 0.01, Max: 0.05, Step: 0.01},
			{Name: ParamGammaCap, Min: 0.01, Max: 0.05, Step: 0.01},
		}}, // duplicate
		{Params: []Param{{Name: ParamGammaCap, Min: 0.01, Max: 0.05, Step: 0.01}}, Schemes: []string{"warp"}},
	}
	for i, sp := range bad {
		if _, err := sp.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid space %+v", i, sp)
		}
	}
}

func TestBaselineMatchesPaperDefaults(t *testing.T) {
	sp, err := DefaultSpace().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	c := sp.Baseline("hcperf")
	d := core.DefaultTunables()
	for i, p := range sp.Params {
		var want float64
		switch p.Name {
		case ParamGammaCap:
			want = sched.DefaultGammaCap
		case ParamMFCWindowMS:
			want = float64(d.MFCWindow) / float64(simtime.Millisecond)
		case ParamRMaxScale:
			want = d.RMaxScale
		case ParamRMinScale:
			want = d.RMinScale
		case ParamRateDecay:
			want = d.RateDecay
		case ParamRateKp0:
			want = d.RateKp0
		}
		if c.Values[i] != want {
			t.Errorf("baseline %s = %v, want %v", p.Name, c.Values[i], want)
		}
	}
}

func TestApplyStampsSpec(t *testing.T) {
	sp, err := (&Space{
		Params: []Param{
			{Name: ParamGammaCap, Min: 0.01, Max: 0.05, Step: 0.01},
			{Name: ParamRateKp0, Min: 0.2, Max: 1.6, Step: 0.2},
		},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tpl := scenario.Spec{Scenario: "carfollow", Duration: 10}
	c := Candidate{Scheme: "edf", Values: []float64{0.03, 0.4}}
	got, err := sp.Apply(tpl, c)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.Scheme != "edf" {
		t.Errorf("scheme = %q, want edf", got.Scheme)
	}
	if got.GammaCap != 0.03 {
		t.Errorf("gamma_cap = %v, want 0.03", got.GammaCap)
	}
	if got.Tunables == nil || got.Tunables.RateKp0 != 0.4 {
		t.Errorf("tunables = %+v, want rate_kp0 0.4", got.Tunables)
	}
	// Wrong arity is rejected.
	if _, err := sp.Apply(tpl, Candidate{Scheme: "edf", Values: []float64{0.03}}); err == nil {
		t.Error("Apply accepted candidate with wrong value count")
	}
}

func TestCandidateKeyDistinguishes(t *testing.T) {
	a := Candidate{Scheme: "hcperf", Values: []float64{0.02, 500}}
	b := Candidate{Scheme: "hcperf", Values: []float64{0.02, 500}}
	c := Candidate{Scheme: "edf", Values: []float64{0.02, 500}}
	d := Candidate{Scheme: "hcperf", Values: []float64{0.025, 500}}
	if a.Key() != b.Key() {
		t.Error("identical candidates have different keys")
	}
	if a.Key() == c.Key() || a.Key() == d.Key() {
		t.Error("distinct candidates share a key")
	}
}

// FuzzParamSpaceJSON feeds arbitrary JSON through the Space decode →
// Normalize → encode → decode → Normalize loop and asserts normalization is
// a fixed point: whatever survives validation must re-encode and
// re-normalize to itself.
func FuzzParamSpaceJSON(f *testing.F) {
	seed, _ := json.Marshal(DefaultSpace())
	f.Add(string(seed))
	f.Add(`{"params":[{"name":"gamma_cap","min":0.01,"max":0.05,"step":0.01}]}`)
	f.Add(`{"params":[{"name":"rate_kp0","min":0.2,"max":1.6,"step":0.2}],"schemes":["edf","edf","hcperf"]}`)
	f.Add(`{"params":[]}`)
	f.Add(`{"params":[{"name":"mfc_window_ms","min":100,"max":5000,"step":1}],"schemes":["dynamic"]}`)
	f.Fuzz(func(t *testing.T, data string) {
		var sp Space
		if err := json.Unmarshal([]byte(data), &sp); err != nil {
			return
		}
		norm, err := sp.Normalize()
		if err != nil {
			return
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal normalized space: %v", err)
		}
		var back Space
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decode normalized space: %v", err)
		}
		norm2, err := back.Normalize()
		if err != nil {
			t.Fatalf("re-normalize round-tripped space: %v", err)
		}
		enc2, err := json.Marshal(norm2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("normalization not a fixed point:\n%s\n%s", enc, enc2)
		}
		if norm.Size() < 0 {
			t.Fatalf("Size() negative: %d", norm.Size())
		}
	})
}
