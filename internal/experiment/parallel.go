package experiment

import (
	"context"
	"fmt"

	"hcperf/internal/runner"
)

// RunAll executes the experiments ids with the given base seed. The
// experiments fan out across workers, and each experiment's internal
// sweeps use the same worker count (runner.Parallelism rules: n >= 1
// selects exactly n workers, n < 1 selects GOMAXPROCS). Reports come back
// in ids order. An unknown id fails the call before any experiment runs;
// otherwise RunAll is fail-slow: it runs every experiment and aggregates
// all failures, so one broken experiment cannot hide another's.
func RunAll(ctx context.Context, ids []string, seed int64, workers int) ([]*Report, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, unknownID(id)
		}
	}
	reports, err := runner.Map(ctx, workers, ids, func(_ context.Context, id string) (*Report, error) {
		rep, err := Run(id, seed, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		return rep, nil
	})
	if err != nil {
		return reports, fmt.Errorf("experiment: %w", err)
	}
	return reports, nil
}

// sweep fans fn out over the inputs across workers, preserving input
// order. It is the single chokepoint every experiment's scheme sweep, seed
// loop and variant grid goes through, so the worker count an experiment is
// run with and the determinism harness cover all of them uniformly.
func sweep[I, O any](workers int, inputs []I, fn func(I) (O, error)) ([]O, error) {
	return runner.Map(context.Background(), workers, inputs, func(_ context.Context, in I) (O, error) {
		return fn(in)
	})
}
