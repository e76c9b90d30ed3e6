package experiment

import (
	"context"
	"fmt"

	"hcperf/internal/scenario"
	"hcperf/internal/search"
)

func init() {
	register("ext-tune", "Extension: coordinator policy search (auto-tuning)",
		"fixed-budget evolutionary search over the coordinator parameter space (γ cap, MFC window, adapter gains, scheme) on car following; reports the Pareto front and the best candidate per objective vs the paper defaults", ExtTune)
}

// extTuneRequest is the pinned search configuration behind the ext-tune
// golden digest: a compact 4-dimensional grid around the paper's hand-picked
// values, explored by a (3+6) evolutionary strategy on a 30-second
// car-following episode with 2 replica seeds per candidate. The whole run is
// deterministic at any worker count, which is what makes the digest
// pinnable.
func extTuneRequest(seed int64) search.Request {
	return search.Request{
		Spec: scenario.Spec{Scenario: "carfollow", Duration: 30},
		Space: &search.Space{
			Params: []search.Param{
				{Name: search.ParamGammaCap, Min: 0.01, Max: 0.08, Step: 0.01},
				{Name: search.ParamMFCWindowMS, Min: 300, Max: 900, Step: 200},
				{Name: search.ParamRateDecay, Min: 0.82, Max: 0.94, Step: 0.04},
				{Name: search.ParamRateKp0, Min: 0.4, Max: 1.2, Step: 0.4},
			},
			Schemes: []string{"edf", "hcperf"},
		},
		Strategy: search.StrategyEvolve,
		Budget:   16,
		Seeds:    2,
		Seed:     seed,
		Mu:       3,
		Lambda:   6,
	}
}

// ExtTune runs the pinned coordinator policy search. The report's rows are
// the baselines plus the canonical Pareto front; the notes summarize the
// best candidate per objective against the paper defaults.
func ExtTune(seed int64, workers int) (*Report, error) {
	rq := extTuneRequest(seed)
	rep, err := rq.Run(context.Background(), workers, nil)
	if err != nil {
		return nil, err
	}
	out := &Report{
		ID:     "ext-tune",
		Title:  "Extension: coordinator policy search (auto-tuning)",
		Header: rep.Header(),
		Rows:   rep.Rows(),
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"strategy=%s budget=%d seeds=%d seed=%d: %d candidates over %d generations (space size %d)",
		rep.Strategy, rep.Budget, rep.Seeds, rq.Seed, rep.Evaluated, rep.Generations, rep.SpaceSize))
	for _, row := range rep.BestRows() {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"%s: best %s vs paper-default %s (%s) at %s", row[0], row[1], row[2], row[3], row[4]))
	}
	return out, nil
}
