package search

import (
	"context"
	"errors"
	"fmt"

	"hcperf/internal/fleet"
	"hcperf/internal/runner"
	"hcperf/internal/scenario"
)

// Progress is a best-so-far snapshot, published after every generation.
// The serving layer renders it verbatim in job status, so the fields carry
// JSON tags.
type Progress struct {
	// Evaluated counts unique candidates scored so far.
	Evaluated int `json:"evaluated"`
	// Generations counts completed generations.
	Generations int `json:"generations"`
	// Best maps each objective name to its best raw value so far (min for
	// minimized objectives, max for gap_min).
	Best map[string]float64 `json:"best,omitempty"`
}

// Options configures one search run. Space and Template must already be
// normalized (Request.Normalize does both).
type Options struct {
	// Space is the candidate space.
	Space *Space
	// Template is the single-vehicle car-following-family spec every
	// candidate is stamped onto.
	Template scenario.Spec
	// Objectives are the scored axes, in canonical order.
	Objectives []Objective
	// Strategy proposes candidates.
	Strategy Strategy
	// Budget caps unique candidate evaluations (baselines included).
	Budget int
	// Seeds is K, the replica count per candidate. Replica seeds are
	// fleet.VehicleSeed(Seed, k) — identical across candidates, so every
	// comparison is paired on common random numbers.
	Seeds int
	// Seed drives replica seeding and the per-generation strategy RNG.
	Seed int64
	// Workers is the evaluation parallelism (runner.Parallelism rules:
	// 0 = GOMAXPROCS). Results are input-ordered, so the outcome is
	// byte-identical at any worker count.
	Workers int
	// OnProgress, when set, observes every generation boundary.
	OnProgress func(Progress)
}

// Run executes the search: generation by generation the strategy proposes
// candidates, each candidate runs its K replicas in seed order with
// candidates fanned across the worker pool, and the evaluated set reduces
// to a canonical Pareto front.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Space == nil {
		return nil, errors.New("search: nil space")
	}
	if opts.Strategy == nil {
		return nil, errors.New("search: nil strategy")
	}
	if len(opts.Objectives) == 0 {
		return nil, errors.New("search: no objectives")
	}
	if opts.Budget < 1 {
		return nil, fmt.Errorf("search: budget %d < 1", opts.Budget)
	}
	if opts.Seeds < 1 {
		return nil, fmt.Errorf("search: seeds %d < 1", opts.Seeds)
	}
	sp := opts.Space
	replicaSeeds := make([]int64, opts.Seeds)
	for k := range replicaSeeds {
		replicaSeeds[k] = fleet.VehicleSeed(opts.Seed, k)
	}

	var scored []Scored
	seen := make(map[string]bool)
	baselineKeys := make(map[string]bool)
	gen := 0
	for len(scored) < opts.Budget {
		room := opts.Budget - len(scored)
		var cands []Candidate
		if gen == 0 {
			// The paper-default candidate under every scheme anchors the
			// report: "beats the defaults" is answerable from one run.
			for _, scheme := range sp.Schemes {
				if len(cands) >= room {
					break
				}
				c := sp.Baseline(scheme)
				baselineKeys[c.Key()] = true
				cands = append(cands, c)
			}
		}
		for _, c := range opts.Strategy.Propose(gen, room-len(cands), sp, newRNG(opts.Seed, gen), scored, opts.Objectives, seen) {
			dup := false
			for _, have := range cands {
				if have.Key() == c.Key() {
					dup = true
					break
				}
			}
			if !dup {
				cands = append(cands, c)
			}
		}
		if len(cands) > room {
			cands = cands[:room]
		}
		if len(cands) == 0 {
			break
		}
		g := gen
		results, err := runner.Map(ctx, opts.Workers, cands, func(ctx context.Context, c Candidate) (Scored, error) {
			m, err := evalCandidate(sp, opts.Template, c, replicaSeeds)
			if err != nil {
				return Scored{}, err
			}
			return Scored{Candidate: c, Metrics: m, Gen: g}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, s := range results {
			scored = append(scored, s)
			seen[s.Candidate.Key()] = true
		}
		gen++
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				Evaluated:   len(scored),
				Generations: gen,
				Best:        bestByObjective(scored, opts.Objectives),
			})
		}
	}
	if len(scored) == 0 {
		return nil, errors.New("search: strategy proposed no candidates")
	}
	return buildReport(opts, scored, gen, baselineKeys), nil
}

// evalCandidate scores one candidate: the spec template is stamped with
// the candidate's tuning, instantiated K times with the shared replica
// seeds, and the K replicas run one after another in seed order, each on
// its own event queue.
func evalCandidate(sp *Space, template scenario.Spec, c Candidate, replicaSeeds []int64) (Metrics, error) {
	spec, err := sp.Apply(template, c)
	if err != nil {
		return Metrics{}, fmt.Errorf("search: candidate %s: %w", c.Key(), err)
	}
	results := make([]*scenario.CarFollowingResult, len(replicaSeeds))
	for k, seed := range replicaSeeds {
		cfg, err := scenario.CarFollowingConfigFromSpec(spec)
		if err != nil {
			return Metrics{}, fmt.Errorf("search: candidate %s: %w", c.Key(), err)
		}
		cfg.Seed = seed
		if results[k], err = scenario.RunCarFollowing(cfg); err != nil {
			return Metrics{}, fmt.Errorf("search: candidate %s: %w", c.Key(), err)
		}
	}
	return reduceMetrics(results), nil
}

// bestByObjective maps each objective to its best raw value over scored.
func bestByObjective(scored []Scored, objs []Objective) map[string]float64 {
	best := make(map[string]float64, len(objs))
	for _, o := range objs {
		b := 0.0
		for i, s := range scored {
			v := s.Metrics.value(o.Name)
			if i == 0 || (o.Maximize && v > b) || (!o.Maximize && v < b) {
				b = v
			}
		}
		best[o.Name] = b
	}
	return best
}
