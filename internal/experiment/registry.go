package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Info describes one registered experiment without running it. The listing
// is the single source hcperf-bench -list and the serving layer's
// GET /v1/experiments both render from, so every surface agrees on ids,
// titles and order.
type Info struct {
	// ID is the registry key, e.g. "table2" or "fig13".
	ID string `json:"id"`
	// Title is the short human label, matching the Report title.
	Title string `json:"title"`
	// Description says what part of the paper's evaluation the
	// experiment regenerates.
	Description string `json:"description"`
}

// entry pairs an experiment's metadata with its implementation.
type entry struct {
	info Info
	fn   Func
}

// registry holds every experiment keyed by ID. The sorted listing below is
// the only iteration surface; ad-hoc map iteration is never exposed.
var registry = map[string]entry{}

// listing is the ID-sorted view of the registry, built on first use so it
// cannot depend on init order across the package's files.
var listing = sync.OnceValue(func() []Info {
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
})

// register adds one experiment; duplicate IDs are a programming error.
func register(id, title, description string, fn Func) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", id))
	}
	registry[id] = entry{info: Info{ID: id, Title: title, Description: description}, fn: fn}
}

func init() {
	register("fig4", "Motivation: red-light scenario under Apollo static priority",
		"§II motivation run: static-priority scheduling misses deadlines as the O(n^3) fusion inflates and ends in a collision (Fig. 4)", Fig4Motivation)
	register("fig5", "Toy schedule: adaptive vs performance-preferred control-command times",
		"§II toy example: three tasks × three releases on one processor; EDF vs HCPerf's γ-grouped schedule (Fig. 5)", Fig5ToySchedule)
	register("fig12", "Task execution times vs scene complexity",
		"execution-time characterisation across scene complexities: O(n^3) fusion blow-up, linear detection growth (Fig. 12)", Fig12ExecTimes)
	register("fig13", "Car following (sine lead, complex-scene episode)",
		"car-following evaluation time series: speeds, errors and per-second miss ratio for all five schemes (Fig. 13)", Fig13CarFollowing)
	register("table2", "RMS speed tracking error, car following simulation",
		"Table II: RMS speed tracking error of the five schemes in the car-following simulation", Table2SpeedRMS)
	register("table3", "RMS distance tracking error, car following simulation",
		"Table III: RMS distance tracking error of the five schemes", Table3DistanceRMS)
	register("fig14", "Lane keeping on the oval loop",
		"loop-driving experiment: lateral offset series for all five schemes, one lap at 5 m/s (Fig. 14)", Fig14LaneKeeping)
	register("table4", "RMS lateral offset error, lane keeping",
		"Table IV: RMS lateral offset error of the five schemes", Table4LateralRMS)
	register("fig15", "Hardware testbed emulation: scaled cars",
		"hardware-testbed car-following run on emulated 1:10-scale cars: accel 5s / cruise 10s / decel 5s (Fig. 15)", Fig15Hardware)
	register("table5", "RMS speed tracking error, hardware testbed",
		"Table V: RMS speed tracking error on the hardware testbed", Table5HardwareSpeedRMS)
	register("table6", "RMS distance tracking error, hardware testbed",
		"Table VI: RMS distance tracking error on the hardware testbed", Table6HardwareDistRMS)
	register("fig16", "Driving process of the traffic-jam episode",
		"§VII-C overview: both cars' speeds and the shrinking gap through the traffic-jam episode under HCPerf (Fig. 16)", Fig16DrivingProcess)
	register("fig17", "Responsiveness vs throughput during a traffic-jam episode",
		"§VII-C study: tracking error, control response time and passenger discomfort trade-off under HCPerf (Fig. 17)", Fig17Responsiveness)
	register("fig18", "Ablation: full HCPerf vs internal coordinator only",
		"ablation of the Task Rate Adapter: full framework vs internal coordinator alone (Fig. 18)", Fig18Ablation)
	register("overhead", "Coordinator computation overhead",
		"§VII-E: the coordinator's own wall-clock cost per coordination step (volatile rows)", OverheadAnalysis)
}

// List returns every registered experiment's metadata, sorted by ID. The
// returned slice is a copy; callers may reorder it freely.
func List() []Info {
	return append([]Info(nil), listing()...)
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	l := listing()
	out := make([]string, len(l))
	for i, info := range l {
		out[i] = info.ID
	}
	return out
}

// Lookup returns the metadata for one experiment ID.
func Lookup(id string) (Info, bool) {
	e, ok := registry[id]
	return e.info, ok
}

// Run executes the experiment with the given ID and base seed, fanning its
// internal sweeps across workers (runner.Parallelism rules). The report is
// the same at every worker count.
func Run(id string, seed int64, workers int) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, unknownID(id)
	}
	return e.fn(seed, workers)
}

func unknownID(id string) error {
	return fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}
