package search

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"hcperf/internal/scenario"
)

// testRequest is a small, fast search: 10 simulated seconds, 2 replicas,
// a 6-point space.
func testRequest(strategy string, budget int) Request {
	return Request{
		Spec: scenario.Spec{Scenario: "carfollow", Duration: 10},
		Space: &Space{
			Params: []Param{
				{Name: ParamGammaCap, Min: 0.01, Max: 0.03, Step: 0.01},
				{Name: ParamRateKp0, Min: 0.4, Max: 0.8, Step: 0.4},
			},
			Schemes: []string{"hcperf"},
		},
		Strategy: strategy,
		Budget:   budget,
		Seeds:    2,
		Seed:     7,
	}
}

func runJSON(t *testing.T, rq Request, workers int) []byte {
	t.Helper()
	rep, err := rq.Run(context.Background(), workers, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	return b
}

// TestRunDeterministicSerialParallel asserts the whole report is
// byte-identical at worker counts 1 and 4, and across repeated runs.
func TestRunDeterministicSerialParallel(t *testing.T) {
	rq := testRequest(StrategyEvolve, 8)
	serial := runJSON(t, rq, 1)
	parallel := runJSON(t, rq, 4)
	if string(serial) != string(parallel) {
		t.Fatalf("serial and parallel reports differ:\n%s\n%s", serial, parallel)
	}
	again := runJSON(t, rq, 4)
	if string(serial) != string(again) {
		t.Fatalf("repeated run differs:\n%s\n%s", serial, again)
	}
}

func TestRunBudgetAndDedup(t *testing.T) {
	rq := testRequest(StrategyRandom, 5)
	rep, err := rq.Run(context.Background(), 2, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Evaluated > 5 {
		t.Fatalf("evaluated %d > budget 5", rep.Evaluated)
	}
	if rep.Evaluated < 1 {
		t.Fatal("nothing evaluated")
	}
	if len(rep.Baselines) != 1 || rep.Baselines[0].Candidate.Scheme != "hcperf" {
		t.Fatalf("baselines = %+v, want one hcperf default", rep.Baselines)
	}
	if len(rep.Best) != len(rep.Objectives) {
		t.Fatalf("best has %d entries for %d objectives", len(rep.Best), len(rep.Objectives))
	}
}

// TestGridExhaustsSpace runs the grid strategy with budget beyond the space
// size: every grid point plus the off-grid baseline must be evaluated, then
// the search must stop on its own.
func TestGridExhaustsSpace(t *testing.T) {
	rq := testRequest(StrategyGrid, 64)
	rep, err := rq.Run(context.Background(), 2, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 6 grid points + 1 off-grid baseline (defaults gamma_cap 0.02 is on
	// grid in one dimension but kp0 0.8 is on grid too — the baseline may
	// coincide with a grid point; allow either).
	if rep.Evaluated < rep.SpaceSize || rep.Evaluated > rep.SpaceSize+1 {
		t.Fatalf("evaluated %d, space size %d: grid not exhausted", rep.Evaluated, rep.SpaceSize)
	}
}

func TestRunProgressReported(t *testing.T) {
	rq := testRequest(StrategyEvolve, 6)
	var last Progress
	calls := 0
	_, err := rq.Run(context.Background(), 2, func(p Progress) {
		calls++
		if p.Evaluated < last.Evaluated || p.Generations < last.Generations {
			t.Fatalf("progress went backwards: %+v after %+v", p, last)
		}
		last = p
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if last.Evaluated == 0 || len(last.Best) == 0 {
		t.Fatalf("final progress empty: %+v", last)
	}
}

func TestRequestNormalizeDefaultsAndIdempotence(t *testing.T) {
	rq := Request{Spec: scenario.Spec{Scenario: "carfollow"}}
	n, err := rq.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if n.Strategy != StrategyEvolve || n.Budget != DefaultBudget || n.Seeds != DefaultSeeds ||
		n.Seed != 1 || n.Mu != DefaultMu || n.Lambda != DefaultLambda {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n.Space == nil || len(n.Space.Params) == 0 {
		t.Fatal("space not defaulted")
	}
	if len(n.Objectives) != len(AllObjectives()) {
		t.Fatalf("objectives = %v, want all", n.Objectives)
	}
	n2, err := n.Normalize()
	if err != nil {
		t.Fatalf("second Normalize: %v", err)
	}
	if !reflect.DeepEqual(n, n2) {
		t.Fatalf("Normalize not idempotent:\n%+v\n%+v", n, n2)
	}
	// A normalized request is a fixed point through encode, decode and
	// normalize.
	b1, err := json.Marshal(n)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Request
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back, err = back.Normalize(); err != nil {
		t.Fatalf("re-normalize: %v", err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("canonical JSON not a fixed point:\n%s\n%s", b1, b2)
	}
}

func TestRequestRejections(t *testing.T) {
	cases := []Request{
		{Spec: scenario.Spec{Scenario: "carfollow", Fleet: &scenario.FleetSpec{N: 2}}},
		{Spec: scenario.Spec{Scenario: "lanekeep"}},
		{Spec: scenario.Spec{Scenario: "carfollow"}, Strategy: "warp"},
		{Spec: scenario.Spec{Scenario: "carfollow"}, Budget: MaxBudget + 1},
		{Spec: scenario.Spec{Scenario: "carfollow"}, Seeds: MaxSeeds + 1},
		{Spec: scenario.Spec{Scenario: "carfollow"}, Strategy: StrategyGrid, Mu: 3},
		{Spec: scenario.Spec{Scenario: "carfollow"}, Objectives: []string{"nope"}},
	}
	for i, rq := range cases {
		if _, err := rq.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid request", i)
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rq := testRequest(StrategyEvolve, 8)
	if _, err := rq.Run(ctx, 2, nil); err == nil {
		t.Fatal("Run with cancelled context succeeded")
	}
}

func TestBaselineFirstGeneration(t *testing.T) {
	rq := testRequest(StrategyEvolve, 8)
	rep, err := rq.Run(context.Background(), 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, b := range rep.Baselines {
		if b.Gen != 0 {
			t.Fatalf("baseline evaluated in gen %d, want 0", b.Gen)
		}
	}
	for _, e := range rep.Best {
		if e.Baseline == 0 && e.Value == 0 {
			t.Fatalf("best entry %q has zero baseline and value", e.Objective)
		}
	}
}
