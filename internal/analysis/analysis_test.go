package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

// chain builds src(rate) -> a -> b with constant exec times.
func chain(t *testing.T, rate float64, aExec, bExec simtime.Duration) *dag.Graph {
	t.Helper()
	g := dag.New()
	add := func(task dag.Task) {
		if _, err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	add(dag.Task{Name: "src", Priority: 3, RelDeadline: 50 * ms, Rate: rate, MinRate: rate, MaxRate: rate, Exec: exectime.Constant(1 * ms)})
	add(dag.Task{Name: "a", Priority: 2, RelDeadline: 50 * ms, Processor: 1, Exec: exectime.Constant(aExec)})
	add(dag.Task{Name: "b", Priority: 1, RelDeadline: 50 * ms, Processor: 3, IsControl: true, Exec: exectime.Constant(bExec)})
	for _, e := range [][2]string{{"src", "a"}, {"a", "b"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCadencesFollowPrimaryChain(t *testing.T) {
	g := chain(t, 20, 5*ms, 2*ms)
	cad, err := Cadences(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"src", "a", "b"} {
		id := g.TaskByName(name).ID
		if cad[id] != 20 {
			t.Errorf("cadence of %s = %v, want 20", name, cad[id])
		}
	}
}

func TestCadencesMultiRoot(t *testing.T) {
	// Two sources at different rates; fusion's primary is the first edge.
	g := dag.New()
	add := func(task dag.Task) {
		if _, err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	add(dag.Task{Name: "fast", Priority: 3, RelDeadline: 50 * ms, Rate: 30, MinRate: 30, MaxRate: 30, Exec: exectime.Constant(1 * ms)})
	add(dag.Task{Name: "slow", Priority: 4, RelDeadline: 50 * ms, Rate: 5, MinRate: 5, MaxRate: 5, Exec: exectime.Constant(1 * ms)})
	add(dag.Task{Name: "fusion", Priority: 2, RelDeadline: 50 * ms, Exec: exectime.Constant(2 * ms)})
	for _, e := range [][2]string{{"slow", "fusion"}, {"fast", "fusion"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cad, err := Cadences(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := cad[g.TaskByName("fusion").ID]; got != 5 {
		t.Errorf("fusion cadence %v, want 5 (slow primary)", got)
	}
}

func TestAnalyzeUtilization(t *testing.T) {
	// src at 10 Hz (off-CPU), a = 20ms, b = 10ms: scheduled demand =
	// 10 * 0.030 = 0.30 CPU.
	g := chain(t, 10, 20*ms, 10*ms)
	rep, err := Analyze(g, Options{NumProcs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalUtilization-0.30) > 1e-9 {
		t.Errorf("TotalUtilization = %v, want 0.30", rep.TotalUtilization)
	}
	if !rep.Feasible() {
		t.Error("0.30 on 2 procs reported infeasible")
	}
	// Source contributes no utilization.
	for _, row := range rep.Tasks {
		if row.Task.Name == "src" && row.Utilization != 0 {
			t.Errorf("source utilization %v, want 0 (off-CPU)", row.Utilization)
		}
	}
}

func TestAnalyzeApolloLoads(t *testing.T) {
	g := chain(t, 10, 20*ms, 10*ms)
	rep, err := Analyze(g, Options{NumProcs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Label 1 -> proc 0 (a: 0.2), label 3 -> proc 1 (b: 0.1).
	if math.Abs(rep.ApolloLoads[0]-0.2) > 1e-9 || math.Abs(rep.ApolloLoads[1]-0.1) > 1e-9 {
		t.Errorf("ApolloLoads = %v, want [0.2 0.1]", rep.ApolloLoads)
	}
	if !rep.ApolloFeasible() || len(rep.Overloaded()) != 0 {
		t.Error("light binding reported overloaded")
	}
}

func TestAnalyzeDetectsOverload(t *testing.T) {
	// 30 Hz x 60ms = 1.8 CPU on task a alone (label 1 -> proc 0),
	// exceeding both the processor and the LL bound (~1.66 for n=2, M=2).
	g := chain(t, 30, 60*ms, 1*ms)
	rep, err := Analyze(g, Options{NumProcs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ApolloFeasible() {
		t.Error("overloaded binding reported feasible")
	}
	over := rep.Overloaded()
	if len(over) != 1 || over[0] != 0 {
		t.Errorf("Overloaded = %v, want [0]", over)
	}
	if rep.WithinLLBound() {
		t.Error("1.83 CPU within LL bound?")
	}
}

func TestAnalyzeSinkLatency(t *testing.T) {
	g := chain(t, 10, 20*ms, 10*ms)
	rep, err := Analyze(g, Options{NumProcs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := g.TaskByName("b").ID
	want := 31 * ms // 1 + 20 + 10
	if got := rep.SinkLatencies[sink]; math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("sink latency %v, want %v", got, want)
	}
	id, lat := rep.BottleneckChain()
	if id != sink || lat != rep.SinkLatencies[sink] {
		t.Errorf("BottleneckChain = %v,%v", id, lat)
	}
}

func TestAnalyzeAD23(t *testing.T) {
	g, err := dag.ADGraph23()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g, Options{NumProcs: 2, Seed: 1, Scene: exectime.Scene{Obstacles: 11, LoadFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalUtilization <= 0 || rep.TotalUtilization > 2 {
		t.Errorf("AD23 nominal utilization %v out of (0,2]", rep.TotalUtilization)
	}
	// The complex scene must demand visibly more.
	busy, err := Analyze(g, Options{NumProcs: 2, Seed: 1, Scene: exectime.Scene{Obstacles: 23, LoadFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if busy.TotalUtilization <= rep.TotalUtilization*1.1 {
		t.Errorf("complex scene utilization %v not >> nominal %v", busy.TotalUtilization, rep.TotalUtilization)
	}
	// The control chain is the bottleneck chain.
	id, lat := rep.BottleneckChain()
	if g.Task(id).Name != "control" {
		t.Errorf("bottleneck sink = %s, want control", g.Task(id).Name)
	}
	if lat <= 0 || lat > 200*ms {
		t.Errorf("control chain nominal latency %v out of range", lat)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := chain(t, 10, 1*ms, 1*ms)
	if _, err := Analyze(g, Options{NumProcs: -1}); err == nil {
		t.Error("negative procs accepted")
	}
}

func TestExpectedExecDeterministic(t *testing.T) {
	m, err := exectime.NewTruncNormal(15*ms, 2*ms, 10*ms, 20*ms)
	if err != nil {
		t.Fatal(err)
	}
	a := ExpectedExec(m, exectime.NominalScene(), 512, rand.New(rand.NewSource(7)))
	b := ExpectedExec(m, exectime.NominalScene(), 512, rand.New(rand.NewSource(7)))
	if a != b {
		t.Errorf("same-seed estimates differ: %v vs %v", a, b)
	}
	if a < 13*ms || a > 17*ms {
		t.Errorf("estimate %v far from the 15ms mean", a)
	}
	if got := ExpectedExec(m, exectime.NominalScene(), 1, nil); got != m.Nominal() {
		t.Errorf("single-sample estimate %v, want nominal", got)
	}
}

// Property: utilization scales linearly with the source rate.
func TestQuickUtilizationLinearInRate(t *testing.T) {
	f := func(rateRaw uint8) bool {
		rate := float64(rateRaw%50) + 1
		g := dag.New()
		if _, err := g.AddTask(dag.Task{Name: "s", Priority: 2, RelDeadline: 50 * ms, Rate: rate, MinRate: rate, MaxRate: rate, Exec: exectime.Constant(1 * ms)}); err != nil {
			return false
		}
		if _, err := g.AddTask(dag.Task{Name: "w", Priority: 1, RelDeadline: 50 * ms, Exec: exectime.Constant(10 * ms)}); err != nil {
			return false
		}
		if err := g.AddEdgeByName("s", "w"); err != nil {
			return false
		}
		if err := g.Validate(); err != nil {
			return false
		}
		rep, err := Analyze(g, Options{NumProcs: 1, Seed: 1})
		if err != nil {
			return false
		}
		return math.Abs(rep.TotalUtilization-rate*0.010) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
