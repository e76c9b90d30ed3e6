package experiment

import (
	"context"
	"fmt"
	"sync/atomic"

	"hcperf/internal/runner"
)

// sweepWorkers is the worker count experiments use for their internal
// scheme/seed sweeps. 0 means the default (serial); negative means
// GOMAXPROCS. It is atomic so concurrent experiment runs (the race tests,
// overlapping CLI invocations in tests) read a consistent value.
var sweepWorkers atomic.Int32

// SetParallelism sets the worker count used by every experiment's internal
// sweep (scheme sweeps, seed loops, variant grids): n >= 1 selects exactly
// n workers, n < 1 selects GOMAXPROCS. The initial default is 1 (serial),
// which is also the reference behaviour the determinism harness compares
// against.
func SetParallelism(n int) {
	if n < 1 {
		sweepWorkers.Store(-1)
		return
	}
	sweepWorkers.Store(int32(n))
}

// Parallelism returns the resolved sweep worker count currently in force.
func Parallelism() int {
	switch n := sweepWorkers.Load(); {
	case n == 0:
		return 1
	case n < 0:
		return runner.Parallelism(0)
	default:
		return int(n)
	}
}

// RunAll executes every registered experiment with the given base seed,
// fanning the experiments themselves out across workers (see
// runner.Parallelism for the worker-count convention; each experiment's
// internal sweeps additionally use the SetParallelism setting). Reports come
// back in IDs() order. RunAll is fail-slow: it runs every experiment and
// aggregates all failures, so one broken experiment cannot hide another's.
func RunAll(ctx context.Context, seed int64, workers int) ([]*Report, error) {
	reports, err := runner.Map(ctx, workers, IDs(), func(_ context.Context, id string) (*Report, error) {
		rep, err := Run(id, seed)
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

// sweep fans fn out over the inputs with the package's sweep parallelism,
// preserving input order. It is the single chokepoint every experiment's
// scheme sweep, seed loop and variant grid goes through, so the -parallel
// flag and the determinism harness cover all of them uniformly.
func sweep[I, O any](inputs []I, fn func(I) (O, error)) ([]O, error) {
	return runner.Map(context.Background(), Parallelism(), inputs, func(_ context.Context, in I) (O, error) {
		return fn(in)
	})
}
