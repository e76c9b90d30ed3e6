// Package analysis provides offline schedulability analysis for HCPerf
// task graphs: cadence derivation along primary chains, utilization
// accounting at a given scene, the Liu & Layland fixed-priority bound the
// paper's Task Rate Adapter references, per-processor loads under
// Apollo-style static binding, and nominal end-to-end path latencies.
//
// The analysis is advisory — the runtime system measures everything online —
// but it explains *why* a configuration overloads (which processor, which
// chain) and is what hcperf-graph -analyze prints.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// TaskReport is the per-task analysis row.
type TaskReport struct {
	// Task is the analysed task.
	Task *dag.Task
	// Cadence is the task's effective release rate (Hz): its own rate
	// for sources, the primary-chain root's rate for derived tasks.
	Cadence float64
	// ExpectedExec is the mean execution time at the analysed scene.
	ExpectedExec simtime.Duration
	// Utilization is Cadence · ExpectedExec (0 for off-CPU sources).
	Utilization float64
	// Processor is the Apollo block-mapped processor index (-1 unbound).
	Processor int
}

// Report is the outcome of Analyze.
type Report struct {
	// Tasks holds the per-task rows in graph ID order.
	Tasks []TaskReport
	// TotalUtilization is the scheduled (non-source) CPU demand in
	// CPU-seconds per second.
	TotalUtilization float64
	// NumProcs is the processor count analysed against.
	NumProcs int
	// LLBound is the Liu & Layland rate-monotonic utilisation bound
	// n(2^(1/n)-1) for the scheduled task count, scaled by NumProcs —
	// a classic sufficient (not necessary) condition the paper's
	// external coordinator cites for maintaining schedulability.
	LLBound float64
	// ApolloLoads is the per-processor demand under Apollo block binding.
	ApolloLoads []float64
	// SinkLatencies maps each sink task to the nominal end-to-end
	// latency along its primary chain (capture + execution, no queueing).
	SinkLatencies map[dag.TaskID]simtime.Duration
}

// Feasible reports whether the total demand fits the processor pool.
func (r *Report) Feasible() bool {
	return r.TotalUtilization <= float64(r.NumProcs)
}

// WithinLLBound reports whether the demand sits under the Liu & Layland
// sufficient bound.
func (r *Report) WithinLLBound() bool { return r.TotalUtilization <= r.LLBound }

// ApolloFeasible reports whether every bound processor's demand fits.
func (r *Report) ApolloFeasible() bool {
	for _, l := range r.ApolloLoads {
		if l > 1 {
			return false
		}
	}
	return true
}

// Overloaded returns the indices of Apollo processors with demand > 1.
func (r *Report) Overloaded() []int {
	var out []int
	for i, l := range r.ApolloLoads {
		if l > 1 {
			out = append(out, i)
		}
	}
	return out
}

// execSamples is the execution-time sample count per task.
const execSamples = 256

// Options tunes Analyze.
type Options struct {
	// Scene is the driving scene to analyse at (zero value: nominal).
	Scene exectime.Scene
	// NumProcs is the processor count (default 2).
	NumProcs int
	// Seed seeds the sampling RNG.
	Seed int64
}

// Analyze computes the schedulability report for a validated graph.
func Analyze(g *dag.Graph, opts Options) (*Report, error) {
	if g == nil {
		return nil, errors.New("analysis: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if opts.NumProcs == 0 {
		opts.NumProcs = 2
	}
	if opts.NumProcs < 1 {
		return nil, fmt.Errorf("analysis: NumProcs %d < 1", opts.NumProcs)
	}
	if opts.Scene == (exectime.Scene{}) {
		opts.Scene = exectime.NominalScene()
	}

	cadences, err := Cadences(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &Report{
		NumProcs:      opts.NumProcs,
		ApolloLoads:   make([]float64, opts.NumProcs),
		SinkLatencies: make(map[dag.TaskID]simtime.Duration),
	}
	scheduled := 0
	for _, t := range g.Tasks() {
		exec := ExpectedExec(t.Exec, opts.Scene, execSamples, rng)
		row := TaskReport{
			Task:         t,
			Cadence:      cadences[t.ID],
			ExpectedExec: exec,
			Processor:    sched.ApolloProcessor(t.Processor, opts.NumProcs),
		}
		if len(g.Predecessors(t.ID)) > 0 { // sources run off-CPU
			row.Utilization = row.Cadence * float64(exec)
			scheduled++
			rep.TotalUtilization += row.Utilization
			if row.Processor >= 0 {
				rep.ApolloLoads[row.Processor] += row.Utilization
			}
		}
		rep.Tasks = append(rep.Tasks, row)
	}
	if scheduled > 0 {
		n := float64(scheduled)
		rep.LLBound = n * (math.Pow(2, 1/n) - 1) * float64(opts.NumProcs)
	}

	// Nominal end-to-end latency along each sink's primary chain.
	for _, sink := range g.Sinks() {
		var latency simtime.Duration
		id := sink.ID
		for id >= 0 {
			t := g.Task(id)
			latency += ExpectedExec(t.Exec, opts.Scene, execSamples, rng)
			id = g.PrimaryPred(id)
		}
		rep.SinkLatencies[sink.ID] = latency
	}
	return rep, nil
}

// Cadences derives each task's effective release rate: sources release at
// their configured rate; a derived task fires at the rate of its primary
// chain's root source.
func Cadences(g *dag.Graph) (map[dag.TaskID]float64, error) {
	if g == nil {
		return nil, errors.New("analysis: nil graph")
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	out := make(map[dag.TaskID]float64, len(topo))
	for _, id := range topo {
		if p := g.PrimaryPred(id); p >= 0 {
			out[id] = out[p]
		} else {
			out[id] = g.Task(id).Rate
		}
	}
	return out, nil
}

// ExpectedExec estimates a model's mean execution time at a scene by
// seeded Monte-Carlo sampling (deterministic for a given rng state).
func ExpectedExec(m exectime.Model, scene exectime.Scene, samples int, rng *rand.Rand) simtime.Duration {
	if samples <= 1 {
		return m.Nominal()
	}
	var sum simtime.Duration
	for i := 0; i < samples; i++ {
		sum += m.Sample(rng, 0, scene)
	}
	return sum / simtime.Duration(samples)
}

// BottleneckChain returns the sink with the largest nominal primary-chain
// latency and that latency; useful for spotting which pipeline dominates
// the end-to-end budget.
func (r *Report) BottleneckChain() (dag.TaskID, simtime.Duration) {
	bestID := dag.TaskID(-1)
	var best simtime.Duration
	ids := make([]int, 0, len(r.SinkLatencies))
	for id := range r.SinkLatencies {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		if l := r.SinkLatencies[dag.TaskID(id)]; l > best {
			best = l
			bestID = dag.TaskID(id)
		}
	}
	return bestID, best
}
