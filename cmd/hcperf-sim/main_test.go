package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hcperf/internal/scenario"
	"hcperf/internal/store"
)

// simOpts is the baseline single-run invocation the tests start from.
func simOpts() options {
	return options{Scenario: "carfollow", Scheme: "hcperf", Seed: 1, Duration: 5,
		Mode: "sim", Parallel: 1}
}

func TestRunScenariosShort(t *testing.T) {
	for _, sc := range scenario.ScenarioNames() {
		t.Run(sc, func(t *testing.T) {
			opts := simOpts()
			opts.Scenario, opts.Scheme = sc, "edf"
			if err := run(opts); err != nil {
				t.Fatalf("run(%s): %v", sc, err)
			}
		})
	}
}

func TestRunWritesCSV(t *testing.T) {
	opts := simOpts()
	opts.CSVPath = filepath.Join(t.TempDir(), "run.csv")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("CSV file is empty")
	}
}

func TestRunWritesChromeTrace(t *testing.T) {
	opts := simOpts()
	opts.TracePath = filepath.Join(t.TempDir(), "run.json")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid Chrome-trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Error("trace has no duration slices")
	}
}

func TestRunWritesTraceCSV(t *testing.T) {
	opts := simOpts()
	opts.Scheme = "edf"
	opts.TracePath = filepath.Join(t.TempDir(), "run.csv")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace CSV has %d lines, want header plus events", len(lines))
	}
	if !strings.HasPrefix(lines[0], "kind,task,cycle") {
		t.Errorf("unexpected trace CSV header %q", lines[0])
	}
}

// TestSuiteModesAreUnknown: the experiment suite is hcperf-bench's, so
// the removed suite mode and its alias fail as unknown modes.
func TestSuiteModesAreUnknown(t *testing.T) {
	for _, mode := range []string{"suite", "experiments"} {
		_, _, err := parseFlags([]string{"-mode", mode})
		if err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("-mode %s: err = %v, want unknown mode", mode, err)
		}
	}
}

// TestModeFlagTable sets every flag in every mode: a flag the mode reads
// parses, and any other fails naming the flag and the mode.
func TestModeFlagTable(t *testing.T) {
	reads := map[string][]string{
		"sim":  strings.Fields("scenario scheme seed duration csv trace spec store"),
		"rt":   strings.Fields("scheme seed duration trace"),
		"tune": strings.Fields("scenario seed duration spec store parallel budget strategy seeds objectives report"),
	}
	if len(modeFlags) != len(reads) {
		t.Fatalf("modeFlags has %d modes, want %d", len(modeFlags), len(reads))
	}
	var all []*flag.Flag
	flagSet(&options{}, new(bool)).VisitAll(func(f *flag.Flag) {
		if f.Name != "mode" && f.Name != "version" {
			all = append(all, f)
		}
	})
	for mode, names := range reads {
		for _, f := range all {
			_, _, err := parseFlags([]string{"-mode", mode, "-" + f.Name + "=" + f.DefValue})
			switch {
			case slices.Contains(names, f.Name):
				if err != nil {
					t.Errorf("%s mode rejects -%s: %v", mode, f.Name, err)
				}
			case err == nil || !strings.Contains(err.Error(), "-"+f.Name) || !strings.Contains(err.Error(), mode+" mode"):
				t.Errorf("%s mode with -%s: err = %v, want a rejection naming the flag and the mode", mode, f.Name, err)
			}
		}
	}
	// The two misconfigurations that used to run silently.
	for _, args := range [][]string{
		{"-scenario", "lanekeep", "-duration", "2", "-budget", "99", "-strategy", "grid", "-parallel", "3"},
		{"-mode", "rt", "-scenario", "lanekeep", "-csv", "x.csv"},
	} {
		if _, _, err := parseFlags(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// -spec still overrides the scenario shorthand in sim mode.
	if _, _, err := parseFlags([]string{"-spec", "s.json", "-scenario", "jam", "-seed", "3"}); err != nil {
		t.Errorf("-spec with -scenario/-seed: %v", err)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	opts := simOpts()
	opts.Scenario = "bogus"
	if err := run(opts); err == nil {
		t.Error("unknown scenario accepted")
	}
	opts = simOpts()
	opts.Scheme = "bogus"
	if err := run(opts); err == nil {
		t.Error("unknown scheme accepted")
	}
	opts = simOpts()
	opts.Mode = "bogus"
	if err := run(opts); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRunSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	spec := `{
		"name": "overload-probe",
		"scenario": "carfollow",
		"scheme": "edf",
		"duration": 5,
		"loads": [{"task": "sensor_fusion", "from": 1, "to": 3, "factor": 2.5}],
		"obstacles": [{"t": 0, "n": 10}, {"t": 2, "n": 30}]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{Mode: "sim", Parallel: 1, SpecPath: path,
		CSVPath: filepath.Join(t.TempDir(), "run.csv")}
	if err := run(opts); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	data, err := os.ReadFile(opts.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("CSV file is empty")
	}
}

// TestRunFleetSpecFile drives a coupled fleet spec through the CLI: the
// run must succeed and export the fleet-level aggregate series as CSV.
func TestRunFleetSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	spec := `{
		"name": "mini-platoon",
		"scenario": "carfollow",
		"scheme": "hcperf",
		"duration": 4,
		"fleet": {"n": 6, "coupling": "platoon", "spacing": 18}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{Mode: "sim", Parallel: 1, SpecPath: path,
		CSVPath: filepath.Join(t.TempDir(), "fleet.csv")}
	if err := run(opts); err != nil {
		t.Fatalf("run -spec fleet: %v", err)
	}
	data, err := os.ReadFile(opts.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fleet_err_p95") {
		t.Error("fleet CSV is missing the fleet_err_p95 aggregate series")
	}
}

func TestRunSpecFileRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		name, spec, wantErr string
	}{
		{"missing file", "", "no such file"},
		{"unknown field", `{"scenario": "carfollow", "bogus": 1}`, "bogus"},
		{"unknown scenario", `{"scenario": "bogus"}`, "unknown scenario"},
		{"unknown task", `{"scenario": "carfollow", "loads": [{"task": "bogus", "from": 0, "to": 1, "factor": 2}]}`, "bogus"},
		{"negative duration", `{"scenario": "carfollow", "duration": -1}`, "duration"},
		{"fleet zero vehicles", `{"scenario": "carfollow", "fleet": {"n": 0}}`, "fleet.n"},
		{"fleet unknown coupling", `{"scenario": "carfollow", "fleet": {"n": 4, "coupling": "v2x"}}`, "unknown fleet coupling"},
		{"fleet negative spacing", `{"scenario": "carfollow", "fleet": {"n": 4, "coupling": "platoon", "spacing": -1}}`, "fleet.spacing"},
		{"fleet outside family", `{"scenario": "lanekeep", "fleet": {"n": 4}}`, "fleet block"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, "missing.json")
			if tt.spec != "" {
				path = filepath.Join(dir, "spec.json")
				if err := os.WriteFile(path, []byte(tt.spec), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := run(options{Mode: "sim", Parallel: 1, SpecPath: path})
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

func TestRunSpecRejectedOutsideSimMode(t *testing.T) {
	for _, mode := range []string{"suite", "rt"} {
		if _, _, err := parseFlags([]string{"-mode", mode, "-spec", "spec.json"}); err == nil {
			t.Errorf("-spec accepted in %s mode", mode)
		}
	}
}

// TestRunStoreReplaysFromDisk is the CLI leg of the persistence contract:
// a second identical invocation sharing a -store directory is a disk hit
// that replays the persisted result — including a byte-identical series
// CSV — instead of re-simulating.
func TestRunStoreReplaysFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	firstCSV := filepath.Join(t.TempDir(), "first.csv")
	secondCSV := filepath.Join(t.TempDir(), "second.csv")

	var m1 store.Metrics
	opts := simOpts()
	opts.Scheme = "edf"
	opts.StoreDir = dir
	opts.Metrics = &m1
	opts.CSVPath = firstCSV
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m1.DiskHits.Load(), m1.DiskMisses.Load(); hits != 0 || misses != 1 {
		t.Fatalf("first run: disk hits=%d misses=%d, want 0/1", hits, misses)
	}

	var m2 store.Metrics
	opts.Metrics = &m2
	opts.CSVPath = secondCSV
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m2.DiskHits.Load(), m2.DiskMisses.Load(); hits != 1 || misses != 0 {
		t.Fatalf("second run: disk hits=%d misses=%d, want 1/0 (replay, not recompute)", hits, misses)
	}
	a, err := os.ReadFile(firstCSV)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(secondCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("replayed series CSV differs from the computed one")
	}
}

// TestRunStoreDegradesWhenUnusable: a -store path that cannot be a
// directory (here, nested under a regular file) must not fail the run —
// the CLI warns and continues without persistence.
func TestRunStoreDegradesWhenUnusable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := simOpts()
	opts.StoreDir = filepath.Join(blocker, "results")
	if err := run(opts); err != nil {
		t.Fatalf("run with unusable store: %v", err)
	}
}

// TestRunStoreRejectedInRTMode: wall-clock runs are not deterministic, so
// they are not content-addressable and -store must be refused outright.
func TestRunStoreRejectedInRTMode(t *testing.T) {
	_, _, err := parseFlags([]string{"-mode", "rt", "-store", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Errorf("rt-mode -store error = %v, want rejection mentioning -store", err)
	}
}

// TestStatusTicks: an rt run of D seconds prints ⌈D⌉ status lines, one
// per tick of its 1 s ticker, however many more ticks arrive.
func TestStatusTicks(t *testing.T) {
	for _, tc := range []struct {
		duration float64
		want     int
	}{{1, 1}, {2.5, 3}, {3, 3}} {
		ticks := make(chan time.Time, 10)
		for i := 0; i < cap(ticks); i++ {
			ticks <- time.Time{}
		}
		lines := 0
		statusTicks(ticks, tc.duration, func() { lines++ })
		if lines != tc.want {
			t.Errorf("duration %v: %d status lines, want %d", tc.duration, lines, tc.want)
		}
	}
}

// TestRunWallClockBriefly runs -mode rt under HCPerf with a CSV trace,
// which must record control commands, then under a baseline.
func TestRunWallClockBriefly(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	opts := simOpts()
	opts.Mode, opts.Duration = "rt", 2
	opts.TracePath = filepath.Join(t.TempDir(), "rt.csv")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\ncontrol,") {
		t.Error("rt trace CSV records no control events")
	}
	opts.Scheme, opts.TracePath = "edf", ""
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
}
