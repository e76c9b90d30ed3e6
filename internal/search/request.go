package search

import (
	"context"
	"fmt"

	"hcperf/internal/scenario"
)

// Service-facing limits: an optimize job is bounded work by construction,
// so the queue/shed machinery's fairness assumptions keep holding.
const (
	// DefaultBudget/MaxBudget bound unique candidate evaluations.
	DefaultBudget = 24
	MaxBudget     = 512
	// DefaultSeeds/MaxSeeds bound replicas per candidate.
	DefaultSeeds = 3
	MaxSeeds     = 16
	// Default and max (μ, λ) for the evolutionary strategy.
	DefaultMu     = 4
	DefaultLambda = 8
	MaxMu         = 64
	MaxLambda     = 256
)

// Request is the declarative, JSON-serializable form of one search: what
// hcperf-sim -mode tune builds from flags and what POST /v1/optimize
// accepts inline. Its normalized canonical JSON folds into the serving
// layer's content-addressed cache digest, so equivalent requests dedupe.
type Request struct {
	// Spec is the scenario template candidates are stamped onto: a
	// single-vehicle car-following-family spec (carfollow, hardware, jam,
	// aeb; no fleet block). Its scheme field is irrelevant — each
	// candidate carries its own.
	Spec scenario.Spec `json:"spec"`
	// Space is the searched space (nil = DefaultSpace).
	Space *Space `json:"space,omitempty"`
	// Objectives names the scored axes (empty = all four).
	Objectives []string `json:"objectives,omitempty"`
	// Strategy is random | grid | evolve (default evolve).
	Strategy string `json:"strategy,omitempty"`
	// Budget caps unique candidate evaluations (default 24, max 512).
	Budget int `json:"budget,omitempty"`
	// Seeds is K, replicas per candidate (default 3, max 16).
	Seeds int `json:"seeds,omitempty"`
	// Seed drives replica seeding and the strategy RNG (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Mu and Lambda parameterize the (μ+λ) evolutionary strategy
	// (defaults 4 and 8; zeroed for other strategies).
	Mu     int `json:"mu,omitempty"`
	Lambda int `json:"lambda,omitempty"`
}

// Normalize validates the request and fills every default explicitly —
// space, objectives, strategy, budgets — so equivalent spellings share one
// canonical encoding. It is idempotent.
func (rq Request) Normalize() (Request, error) {
	spec, err := rq.Spec.Normalize()
	if err != nil {
		return rq, err
	}
	if spec.Fleet != nil {
		return rq, fmt.Errorf("search: fleet templates are not supported; tune the single-vehicle spec and run fleet sweeps separately")
	}
	// The family check rides on the config mapping: non-car-following
	// scenarios fail here with the standard scenario error.
	if _, err := scenario.CarFollowingConfigFromSpec(spec); err != nil {
		return rq, err
	}
	rq.Spec = spec

	sp := DefaultSpace()
	if rq.Space != nil {
		sp = rq.Space
	}
	norm, err := sp.Normalize()
	if err != nil {
		return rq, err
	}
	rq.Space = &norm

	objs, err := ParseObjectives(rq.Objectives)
	if err != nil {
		return rq, err
	}
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	rq.Objectives = names

	if rq.Strategy == "" {
		rq.Strategy = StrategyEvolve
	}
	if rq.Strategy == StrategyEvolve {
		if rq.Mu == 0 {
			rq.Mu = DefaultMu
		}
		if rq.Lambda == 0 {
			rq.Lambda = DefaultLambda
		}
		if rq.Mu < 1 || rq.Mu > MaxMu {
			return rq, fmt.Errorf("search: mu %d outside [1,%d]", rq.Mu, MaxMu)
		}
		if rq.Lambda < 1 || rq.Lambda > MaxLambda {
			return rq, fmt.Errorf("search: lambda %d outside [1,%d]", rq.Lambda, MaxLambda)
		}
	} else {
		if rq.Mu != 0 || rq.Lambda != 0 {
			return rq, fmt.Errorf("search: mu/lambda apply to the evolve strategy only")
		}
	}
	// Validate the strategy name itself.
	if _, err := NewStrategy(rq.Strategy, max(rq.Mu, 1), max(rq.Lambda, 1)); err != nil {
		return rq, err
	}

	if rq.Budget == 0 {
		rq.Budget = DefaultBudget
	}
	if rq.Budget < 1 || rq.Budget > MaxBudget {
		return rq, fmt.Errorf("search: budget %d outside [1,%d]", rq.Budget, MaxBudget)
	}
	if rq.Seeds == 0 {
		rq.Seeds = DefaultSeeds
	}
	if rq.Seeds < 1 || rq.Seeds > MaxSeeds {
		return rq, fmt.Errorf("search: seeds %d outside [1,%d]", rq.Seeds, MaxSeeds)
	}
	if rq.Seed == 0 {
		rq.Seed = 1
	}
	return rq, nil
}

// Run normalizes and executes the request with the given evaluation
// parallelism, reporting generation progress to onProgress when non-nil.
func (rq Request) Run(ctx context.Context, workers int, onProgress func(Progress)) (*Report, error) {
	n, err := rq.Normalize()
	if err != nil {
		return nil, err
	}
	strategy, err := NewStrategy(n.Strategy, n.Mu, n.Lambda)
	if err != nil {
		return nil, err
	}
	objs, err := ParseObjectives(n.Objectives)
	if err != nil {
		return nil, err
	}
	return Run(ctx, Options{
		Space:      n.Space,
		Template:   n.Spec,
		Objectives: objs,
		Strategy:   strategy,
		Budget:     n.Budget,
		Seeds:      n.Seeds,
		Seed:       n.Seed,
		Workers:    workers,
		OnProgress: onProgress,
	})
}
