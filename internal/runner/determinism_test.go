package runner_test

// Determinism verification for the whole evaluation: every experiment in
// the registry must produce a byte-identical Report — same text rendering,
// same CSV export — whether its internal sweeps run serially or on a
// 4-worker pool. This is the load-bearing invariant behind `-parallel N`:
// simulations own all their state (RNGs, task graphs, recorders), so
// concurrency must be observationally invisible. These tests live in an
// external test package because internal/experiment imports internal/runner.

import (
	"context"
	"fmt"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/runner"
	"hcperf/internal/scenario"
)

// digestAt runs one experiment with the given sweep worker count and
// returns its canonical digest.
func digestAt(t *testing.T, id string, seed int64, workers int) string {
	t.Helper()
	rep, err := experiment.Run(id, seed, workers)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	d, err := rep.Digest()
	if err != nil {
		t.Fatalf("%s digest: %v", id, err)
	}
	return d
}

// TestEveryExperimentDeterministicSerialVsParallel is the table-driven
// harness over the full registry: serial and 4-worker runs of every
// Fig/Table constructor must digest identically for the same seed.
func TestEveryExperimentDeterministicSerialVsParallel(t *testing.T) {
	const seed = 7
	for _, id := range experiment.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := digestAt(t, id, seed, 1)
			parallel := digestAt(t, id, seed, 4)
			if serial != parallel {
				t.Errorf("experiment %s: serial digest %s != parallel digest %s", id, serial, parallel)
			}
		})
	}
}

// suiteResult adapts a full RunAll result to the harness's Digester.
type suiteResult []*experiment.Report

func (s suiteResult) Digest() (string, error) {
	var all string
	for _, rep := range s {
		d, err := rep.Digest()
		if err != nil {
			return "", err
		}
		all += rep.ID + "=" + d + ";"
	}
	return all, nil
}

// TestSuiteVerifySerialParallel drives the harness API end to end: the
// entire suite, fanned out at both levels (experiments across the pool and
// sweeps inside each experiment), must match its serial reference.
func TestSuiteVerifySerialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	err := runner.VerifySerialParallel(context.Background(), 4, func(ctx context.Context, workers int) (runner.Digester, error) {
		reports, err := experiment.RunAll(ctx, experiment.IDs(), 7, workers)
		if err != nil {
			return nil, err
		}
		return suiteResult(reports), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferentSeedsDiverge is the harness's sanity counterweight: if two
// different seeds produced identical digests, the digest (or the seeding)
// would be vacuous and the tests above would prove nothing.
func TestDifferentSeedsDiverge(t *testing.T) {
	a := digestAt(t, "fig13", 7, 1)
	b := digestAt(t, "fig13", 8, 1)
	if a == b {
		t.Error("fig13 digests identical across different seeds; digest is not discriminating")
	}
}

// shortSweep runs a truncated car-following sweep across all five schemes
// and returns one scalar fingerprint per scheme.
func shortSweep(workers int, seed int64) ([]float64, error) {
	results, err := runner.Map(context.Background(), workers, scenario.AllSchemes(),
		func(_ context.Context, s scenario.Scheme) (*scenario.CarFollowingResult, error) {
			return scenario.RunCarFollowing(scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: s, Seed: seed, Duration: 5}})
		})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.SpeedErrRMS + 1000*r.DistErrRMS + float64(r.EngineStats.ControlCommands)
	}
	return out, nil
}

// TestOverlappingSweepsNoSharedState runs several whole sweeps concurrently
// — sweeps inside sweeps, all on the same seed — and checks every copy
// reproduces the serial reference exactly. Under `go test -race` this
// also flushes out hidden globals in the exectime/rand plumbing: any shared
// mutable state between two engine instances is either a race report or a
// fingerprint mismatch.
func TestOverlappingSweepsNoSharedState(t *testing.T) {
	const seed = 3
	want, err := shortSweep(1, seed)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 4
	got, err := runner.Map(context.Background(), copies, make([]int, copies),
		func(_ context.Context, _ int) ([]float64, error) {
			return shortSweep(2, seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	for c, fp := range got {
		for i := range want {
			if fp[i] != want[i] {
				t.Errorf("concurrent sweep copy %d, scheme %v: fingerprint %v != serial reference %v",
					c, scenario.AllSchemes()[i], fp[i], want[i])
			}
		}
	}
}

// TestRunAllFailSlowReportsEveryFailure checks the suite-level error
// aggregation contract via a tiny synthetic registry stand-in: the real
// registry has no failing experiments, so exercise RunAll's error path
// through runner.Map directly with experiment-shaped units.
func TestRunAllFailSlowReportsEveryFailure(t *testing.T) {
	ids := []string{"ok-1", "bad-1", "ok-2", "bad-2"}
	_, err := runner.Map(context.Background(), 2, ids, func(_ context.Context, id string) (*experiment.Report, error) {
		if id[:2] == "ba" {
			return nil, fmt.Errorf("%s: synthetic failure", id)
		}
		return &experiment.Report{ID: id}, nil
	})
	var errs runner.Errors
	if !asErrors(err, &errs) || len(errs) != 2 || errs[0].Index != 1 || errs[1].Index != 3 {
		t.Fatalf("want failures at indices 1 and 3, got %v", err)
	}
}

func asErrors(err error, target *runner.Errors) bool {
	e, ok := err.(runner.Errors)
	if ok {
		*target = e
	}
	return ok
}
