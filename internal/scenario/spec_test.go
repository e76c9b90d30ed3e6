package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	got, err := Spec{Scenario: "carfollow"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Scenario: "carfollow", Graph: GraphAD23, Scheme: "hcperf", Seed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalized = %+v, want %+v", got, want)
	}
	// Normalize is idempotent: a normalized spec is its own fixed point.
	again, err := got.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Errorf("re-normalized = %+v, want %+v", again, got)
	}
}

func TestSpecNormalizeFillsGraphPerScenario(t *testing.T) {
	for _, tt := range []struct {
		scenario, graph string
	}{
		{"carfollow", GraphAD23},
		{"hardware", GraphAD23},
		{"jam", GraphAD23},
		{"aeb", GraphAD23},
		{"lanekeep", GraphAD23},
		{"combined", GraphDualControl},
		{"motivation", GraphMotivation},
	} {
		got, err := Spec{Scenario: tt.scenario}.Normalize()
		if err != nil {
			t.Errorf("%s: %v", tt.scenario, err)
			continue
		}
		if got.Graph != tt.graph {
			t.Errorf("%s: graph = %q, want %q", tt.scenario, got.Graph, tt.graph)
		}
	}
}

func TestSpecNormalizeErrors(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"unknown scenario", Spec{Scenario: "bogus"}, "unknown scenario"},
		{"empty scenario", Spec{}, "unknown scenario"},
		{"unknown graph", Spec{Scenario: "carfollow", Graph: "bogus"}, "unknown graph"},
		{"graph mismatch", Spec{Scenario: "carfollow", Graph: GraphMotivation}, "runs graph"},
		{"unknown scheme", Spec{Scenario: "carfollow", Scheme: "bogus"}, "unknown scheme"},
		{"negative duration", Spec{Scenario: "carfollow", Duration: -1}, "duration"},
		{"negative sample rate", Spec{Scenario: "carfollow", SampleRate: -2}, "sample_rate"},
		{"negative num procs", Spec{Scenario: "carfollow", NumProcs: -1}, "num_procs"},
		{"unknown load task", Spec{Scenario: "carfollow",
			Loads: []SpecLoad{{Task: "bogus", From: 0, To: 1, Factor: 2}}}, "bogus"},
		{"bad load window", Spec{Scenario: "carfollow",
			Loads: []SpecLoad{{Task: "sensor_fusion", From: 3, To: 1, Factor: 2}}}, "empty interval"},
		{"non-positive load factor", Spec{Scenario: "carfollow",
			Loads: []SpecLoad{{Task: "sensor_fusion", From: 0, To: 1, Factor: 0}}}, "factor"},
		{"unknown rate task", Spec{Scenario: "carfollow",
			RateOverrides: map[string]float64{"bogus": 10}}, "bogus"},
		{"out-of-range rate", Spec{Scenario: "carfollow",
			RateOverrides: map[string]float64{"camera_front": 1e9}}, "rate"},
		{"obstacles not from zero", Spec{Scenario: "carfollow",
			Obstacles: []ObstaclePhase{{T: 1, N: 5}}}, "obstacles[0]"},
		{"obstacles not increasing", Spec{Scenario: "carfollow",
			Obstacles: []ObstaclePhase{{T: 0, N: 5}, {T: 0, N: 6}}}, "obstacles[1]"},
		{"obstacles negative count", Spec{Scenario: "carfollow",
			Obstacles: []ObstaclePhase{{T: 0, N: -5}}}, "obstacles[0].n"},
		{"disable_e2e outside family", Spec{Scenario: "lanekeep", DisableE2E: true}, "disable_e2e"},
		{"track_gap_error outside family", Spec{Scenario: "combined", TrackGapError: true}, "track_gap_error"},
		{"loads on motivation", Spec{Scenario: "motivation",
			Loads: []SpecLoad{{Task: "fusion", From: 0, To: 1, Factor: 2}}}, "does not support"},
		{"gamma_cap on motivation", Spec{Scenario: "motivation", GammaCap: 3}, "does not support"},
		{"obstacles on motivation", Spec{Scenario: "motivation",
			Obstacles: []ObstaclePhase{{T: 0, N: 5}}}, "obstacles"},
		{"fleet outside family", Spec{Scenario: "lanekeep",
			Fleet: &FleetSpec{N: 4}}, "fleet block"},
		{"fleet zero vehicles", Spec{Scenario: "carfollow",
			Fleet: &FleetSpec{N: 0}}, "fleet.n"},
		{"fleet unknown coupling", Spec{Scenario: "carfollow",
			Fleet: &FleetSpec{N: 4, Coupling: "v2x"}}, "unknown fleet coupling"},
		{"fleet negative spacing", Spec{Scenario: "carfollow",
			Fleet: &FleetSpec{N: 4, Coupling: FleetCouplingPlatoon, Spacing: -1}}, "fleet.spacing"},
		{"fleet spacing without platoon", Spec{Scenario: "carfollow",
			Fleet: &FleetSpec{N: 4, Spacing: 10}}, "require"},
		{"fleet seed count mismatch", Spec{Scenario: "carfollow",
			Fleet: &FleetSpec{N: 4, VehicleSeeds: []int64{1, 2}}}, "vehicle_seeds"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.spec.Normalize()
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted", tt.spec)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

// TestSpecNormalizeBuildsNoGraph pins that a spec without loads, rate
// overrides or tunables has its graph validated by name: normalizing it
// allocates less than building its graph alone.
func TestSpecNormalizeBuildsNoGraph(t *testing.T) {
	build := testing.AllocsPerRun(20, func() {
		if _, err := BuildGraph(GraphAD23); err != nil {
			t.Fatal(err)
		}
	})
	spec := Spec{Scenario: "carfollow", Scheme: "edf", Duration: 5, Obstacles: []ObstaclePhase{{T: 0, N: 3}}}
	normalize := testing.AllocsPerRun(20, func() {
		if _, err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
	})
	if normalize >= build {
		t.Errorf("Spec.Normalize allocates %v times, building the graph %v; want fewer", normalize, build)
	}
}

// TestCheckGraphMatchesBuildGraph: the name check Normalize uses accepts
// exactly the graphs BuildGraph builds and rejects the rest with
// BuildGraph's error.
func TestCheckGraphMatchesBuildGraph(t *testing.T) {
	for _, name := range append(GraphNames(), "bogus", "") {
		_, buildErr := BuildGraph(name)
		checkErr := checkGraph(name)
		if (buildErr == nil) != (checkErr == nil) || buildErr != nil && buildErr.Error() != checkErr.Error() {
			t.Errorf("graph %q: BuildGraph error %v, checkGraph error %v", name, buildErr, checkErr)
		}
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec(strings.NewReader(`{"scenario": "carfollow", "bogus": 1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := DecodeSpec(strings.NewReader(`{"scenario": "carfollow", "loads": [{"task": "fusion", "typo": 1}]}`)); err == nil {
		t.Error("unknown nested field accepted")
	}
	if _, err := DecodeSpec(strings.NewReader(`{"scenario"`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	got, err := DecodeSpec(strings.NewReader(`{"scenario": "lanekeep", "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != "lanekeep" || got.Seed != 7 || got.Scheme != "hcperf" {
		t.Errorf("decoded = %+v", got)
	}
}

func TestRunSpecEndToEnd(t *testing.T) {
	res, err := RunSpec(Spec{
		Scenario: "carfollow",
		Scheme:   "edf",
		Duration: 5,
		Loads:    []SpecLoad{{Task: "sensor_fusion", From: 1, To: 3, Factor: 2.5}},
		Obstacles: []ObstaclePhase{
			{T: 0, N: 10}, {T: 2, N: 30},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Title == "" || len(res.Rows) == 0 {
		t.Fatalf("result missing title or rows: %+v", res)
	}
	if res.Rec == nil || res.Rec.Series("gap").Len() == 0 {
		t.Error("result has no recorded gap series")
	}
	for _, row := range res.Rows {
		if len(row) != 2 || row[0] == "" || row[1] == "" {
			t.Errorf("malformed row %v", row)
		}
	}
}

// TestRunSpecMatchesDirectRun proves the spec path is the same computation
// as calling the scenario runner directly: identical series, sample for
// sample.
func TestRunSpecMatchesDirectRun(t *testing.T) {
	res, err := RunSpec(Spec{Scenario: "carfollow", Scheme: "edf", Duration: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCarFollowing(CarFollowingConfig{Scheme: SchemeEDF, Seed: 1, Duration: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Rec.Series("speed_err"), direct.Rec.Series("speed_err")
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Error("spec run diverges from direct RunCarFollowing call")
	}
}

// FuzzSpecJSON fuzzes the decode→validate→re-encode round trip: no input
// may panic, and any spec that survives validation must re-encode to a
// stable canonical form (decode(encode(s)) normalizes back to the same
// bytes — the property the service's content-addressed cache key relies
// on).
func FuzzSpecJSON(f *testing.F) {
	f.Add(`{"scenario": "carfollow"}`)
	f.Add(`{"scenario": "lanekeep", "scheme": "edf", "seed": 42, "duration": 10}`)
	f.Add(`{"scenario": "combined", "rate_overrides": {"camera_front": 9}}`)
	f.Add(`{"scenario": "motivation", "max_data_age_ms": -1}`)
	f.Add(`{"scenario": "carfollow", "loads": [{"task": "sensor_fusion", "from": 1, "to": 3, "factor": 2}],
	       "obstacles": [{"t": 0, "n": 4}, {"t": 5, "n": 40}], "gamma_cap": 3, "disable_e2e": true}`)
	f.Add(`{"scenario": "aeb", "graph": "ad23", "track_gap_error": true}`)
	f.Add(`{"scenario": "carfollow", "duration": -1}`)
	f.Add(`{"scenario": "bogus"}`)
	f.Add(`{"scenario": "carfollow", "fleet": {"n": 8}}`)
	f.Add(`{"scenario": "carfollow", "fleet": {"n": 4, "coupling": "platoon", "spacing": 18, "brake_threshold": 2, "brake_obstacles": 14}}`)
	f.Add(`{"scenario": "carfollow", "fleet": {"n": 2, "vehicle_seeds": [7, 9]}}`)
	f.Add(`{"scenario": "carfollow", "fleet": {"n": 0}}`)
	f.Add(`{"scenario": "lanekeep", "fleet": {"n": 4}}`)
	f.Add(`{"scenario": "carfollow", "fleet": {"n": 4, "coupling": "v2x"}}`)
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := DecodeSpec(strings.NewReader(input))
		if err != nil {
			return // invalid specs must error, not panic
		}
		b1, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		spec2, err := DecodeSpec(strings.NewReader(string(b1)))
		if err != nil {
			t.Fatalf("valid spec %s does not survive round trip: %v", b1, err)
		}
		b2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("round trip is not a fixed point:\n first %s\nsecond %s", b1, b2)
		}
	})
}
