package run

import (
	"context"
	"testing"

	"hcperf/internal/scenario"
)

// specPin is one spec run through Execute, pinned: the report digest,
// traced or not, and the lifecycle event count of the traced run.
type specPin struct {
	name   string
	spec   scenario.Spec
	digest string
	events int
}

// knobs returns a spec of the named scenario with every knob its family
// accepts set to a non-default value. Motivation takes only the common
// knobs; lane keeping and combined add loads, rate overrides, the γ cap
// and an obstacle profile; the car-following family adds the
// latency-guard switches, gap tracking and tunables.
func knobs(scenarioName string, carFollow, loads bool) scenario.Spec {
	s := scenario.Spec{
		Name:         scenarioName + "-knobs",
		Scenario:     scenarioName,
		Scheme:       "hcperf-internal",
		Seed:         7,
		Duration:     6,
		NumProcs:     3,
		VehicleStep:  0.005,
		SampleRate:   2,
		MaxDataAgeMS: 180,
	}
	if loads {
		s.GammaCap = 0.05
		s.Loads = []scenario.SpecLoad{{Task: "sensor_fusion", From: 1, To: 4, Factor: 2.5}}
		s.RateOverrides = map[string]float64{"camera_front": 14, "lidar_scan": 8}
		s.Obstacles = []scenario.ObstaclePhase{{T: 0, N: 9}, {T: 2, N: 30}, {T: 5, N: 12}}
	}
	if carFollow {
		s.DisableE2E = true
		s.TrackGapError = true
		s.Tunables = &scenario.SpecTunables{MFCWindowMS: 800, RateKp0: 0.5, RateDecay: 0.8, RMinScale: 0.8, RMaxScale: 1.2}
	}
	return s
}

// specPins covers every spec family at its defaults and with every knob it
// accepts set, plus an uncoupled fleet and two platoons. The figures were
// recorded before the scenario configs were folded into one closed-loop
// config, and the tie platoon's before fleets left the shared event queue:
// they witness that every spec family computes what it did then.
func specPins() []specPin {
	cfHCPerf := knobs("carfollow", true, true)
	cfHCPerf.Name, cfHCPerf.Scheme, cfHCPerf.MaxDataAgeMS = "carfollow-knobs-hcperf", "hcperf", -1
	fleetNone := scenario.Spec{Scenario: "carfollow", Scheme: "edf", Duration: 5, NumProcs: 3,
		Loads: []scenario.SpecLoad{{Task: "sensor_fusion", From: 1, To: 3, Factor: 2}},
		Fleet: &scenario.FleetSpec{N: 3}}
	fleetPlatoon := scenario.Spec{Scenario: "jam", Duration: 8,
		Tunables: &scenario.SpecTunables{RateKp0: 0.6},
		Fleet:    &scenario.FleetSpec{N: 3, Coupling: scenario.FleetCouplingPlatoon, Spacing: 15, BrakeThreshold: 2, BrakeObstacles: 10}}
	// A platoon whose ticks coincide: a binary-fraction vehicle step puts
	// every predecessor dynamics step on the same instant as its
	// follower's, and on the follower's 8 Hz source releases, adapt steps
	// and 1 Hz samples; the low brake threshold makes the brake-obstacle
	// term fire. Which state a follower reads at those instants is decided
	// by the order events fire in at one instant.
	fleetTies := scenario.Spec{Scenario: "carfollow", Scheme: "hcperf", Seed: 4, Duration: 8,
		VehicleStep: 0.0625, SampleRate: 1,
		Fleet: &scenario.FleetSpec{N: 5, Coupling: scenario.FleetCouplingPlatoon, Spacing: 16, BrakeThreshold: 1}}
	return []specPin{
		{"aeb", scenario.Spec{Scenario: "aeb"},
			"667f5dc359d4e35f8136c64bf185573d409aa2d28c4cd20ec274475ca754290b", 9706},
		{"carfollow", scenario.Spec{Scenario: "carfollow"},
			"b06115ebfe75326b20d5e2e4c1f905656a06c6681a4f1834353193849fbf8dd4", 61192},
		{"combined", scenario.Spec{Scenario: "combined"},
			"abfd1ed55e5b9fda0effda03b3b0b37aa81996189a94618c24ddcde569665778", 57300},
		{"hardware", scenario.Spec{Scenario: "hardware"},
			"e2536102eb15b72dc6ebcd322954747185f35687ba730ed8ea24c9039c710965", 15578},
		{"jam", scenario.Spec{Scenario: "jam"},
			"c59f655b36276ebb9bf6e15b1dd7fcc4db886bc4435071a429d8b9097988dfd2", 25284},
		{"lanekeep", scenario.Spec{Scenario: "lanekeep"},
			"e742bea244332aa0f60c79e3ac8512353cbc9021a27e8b6d7bd22492109011da", 51178},
		{"motivation", scenario.Spec{Scenario: "motivation"},
			"9186577280a32258a8a4b6c6fcfb0241d62951ad0a71576fb1899c4f2395c370", 7892},
		{"aeb-knobs", knobs("aeb", true, true),
			"f7b0f55003b0b4caed8987556ee8774f99f7fb40fc2078bfb2937ae4c56359e1", 3932},
		{"carfollow-knobs", knobs("carfollow", true, true),
			"2a6c6de0660f9ab72c6f21de7ba1745f25b470306f893ce60d608169e96c2e09", 3932},
		{"carfollow-knobs-hcperf", cfHCPerf,
			"c2d784ce87e5ecb9e80e1ceba8fc4d10c01d5ed0b944ee69e70f9b26f1ee98bc", 3757},
		{"combined-knobs", knobs("combined", false, true),
			"ae777ec067bdeae2c2aa18e5f253e84fe45d86c2928808e7d948612eaf99fdd5", 4769},
		{"hardware-knobs", knobs("hardware", true, true),
			"e59edf751b86f71d0ee4f011c72f02ebe17fa2684933a012ed9f5fede421c8c9", 3932},
		{"jam-knobs", knobs("jam", true, true),
			"5a26795c1030068c1a0e45bde156f6935004b3a226dc4378324878403b202e84", 3932},
		{"lanekeep-knobs", knobs("lanekeep", false, true),
			"82360c88ec5b946dec24145afaf9a7db097c3795e214ef56ff9c475bb4b3a0ee", 3932},
		{"motivation-knobs", knobs("motivation", false, false),
			"3c3984fb7dfbb01e0321af767b68628a298f617d647dec9e0fce2fadd6774666", 2741},
		{"fleet-none", fleetNone,
			"05c4ee2e2871ce71b51bb51f34ab5eab6ea8915a6ad290427f57de876cb9094c", 10515},
		{"fleet-platoon", fleetPlatoon,
			"b52ea508e5894e2d4c55d17eee0e3d015e3377bc95ef2d6d671db43b7497371e", 16777},
		{"fleet-platoon-ties", fleetTies,
			"05c1e8d071591840fbd4d6a9264bccbc985baac5921bc779f63e26fde2c2540e", 29185},
	}
}

// TestSpecPathPins runs each pinned spec through Execute, traced and
// untraced, and checks the report digest of both and the traced run's
// lifecycle event count. Tracing must not change the report.
func TestSpecPathPins(t *testing.T) {
	for _, pin := range specPins() {
		t.Run(pin.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				spec := pin.spec
				req, err := Request{Spec: &spec, Trace: traced}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				res, err := Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				digest, err := res.Report.Digest()
				if err != nil {
					t.Fatal(err)
				}
				if digest != pin.digest {
					t.Errorf("traced=%t: report digest %s, pinned %s", traced, digest, pin.digest)
				}
				want := 0
				if traced {
					want = pin.events
				}
				if len(res.Events) != want {
					t.Errorf("traced=%t: %d lifecycle events, want %d", traced, len(res.Events), want)
				}
			}
		})
	}
}
