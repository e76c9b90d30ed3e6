package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hcperf/internal/perf"
)

func TestRunList(t *testing.T) {
	if _, err := run("", 1, "", true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleWithCSV(t *testing.T) {
	dir := t.TempDir()
	if _, err := run("fig5", 1, dir, false, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_rows.csv")); err != nil {
		t.Errorf("rows CSV missing: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := run("bogus", 1, "", false, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunSameDigestsAtAnyParallelism: the worker count reaches each
// experiment's sweeps as an argument, and the reports digest the same at
// -parallel 1 and 4.
func TestRunSameDigestsAtAnyParallelism(t *testing.T) {
	for _, id := range []string{"fig5", "table2", "ext-tune"} {
		var digests [2]string
		for i, parallel := range []int{1, 4} {
			reports, err := run(id, 1, "", false, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != 1 || reports[0].ID != id {
				t.Fatalf("%s at -parallel %d: got %d reports", id, parallel, len(reports))
			}
			if digests[i], err = reports[0].Digest(); err != nil {
				t.Fatal(err)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at -parallel 1, %s at -parallel 4", id, digests[0], digests[1])
		}
	}
}

// TestJSONCheckRoundTrip exercises the gate end to end: emit a baseline at
// one iteration, then check a fresh run against it under thresholds loose
// enough that a single-iteration rerun can never trip them.
func TestJSONCheckRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the perf suite twice")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := runJSON("1x", 1, baseline); err != nil {
		t.Fatal(err)
	}
	base, err := perf.ReadFile(baseline)
	if err != nil {
		t.Fatalf("emitted baseline unreadable: %v", err)
	}
	if len(base.Results) != len(perf.Suite()) {
		t.Fatalf("baseline has %d results, want %d", len(base.Results), len(perf.Suite()))
	}
	fresh := filepath.Join(dir, "fresh.json")
	loose := perf.Thresholds{NsPerOp: 1e9, AllocsPerOp: 1e9}
	if err := runCheck(baseline, "1x", 1, fresh, loose); err != nil {
		t.Fatalf("self-check regressed: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh JSON not written for artifact upload: %v", err)
	}
}

// TestCheckFlagsRegression verifies the exit path: a fabricated baseline
// with impossible numbers must make the check fail with errRegression.
func TestCheckFlagsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the perf suite")
	}
	base := &perf.Baseline{Benchtime: "1x"}
	for _, b := range perf.Suite() {
		// Sub-nanosecond, zero-alloc fantasy numbers: any real run regresses.
		base.Results = append(base.Results, perf.Result{Name: b.Name, Iterations: 1, NsPerOp: 0.001})
	}
	path := filepath.Join(t.TempDir(), "impossible.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	err := runCheck(path, "1x", 1, "", perf.DefaultThresholds())
	if !errors.Is(err, errRegression) {
		t.Fatalf("err = %v, want errRegression", err)
	}
}
