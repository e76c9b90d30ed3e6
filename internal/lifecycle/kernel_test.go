package lifecycle

import (
	"testing"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// idleBackend is a Backend that never runs anything: enough for kernel
// calls that touch no job.
type idleBackend struct{}

func (idleBackend) DeliverAfter(simtime.Time, simtime.Duration, func(simtime.Time)) {}
func (idleBackend) Wake(simtime.Time)                                               {}
func (idleBackend) ProcState(simtime.Time) *sched.ProcState                         { return &sched.ProcState{} }

func TestKernelSetRateClamped(t *testing.T) {
	g := dag.New()
	for _, task := range []dag.Task{
		{Name: "camera", Priority: 2, RelDeadline: 0.05, Rate: 10, MinRate: 5, MaxRate: 20, Exec: exectime.Constant(0.001)},
		{Name: "control", Priority: 1, RelDeadline: 0.05, IsControl: true, Exec: exectime.Constant(0.001)},
	} {
		if _, err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdgeByName("camera", "control"); err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(Config{Graph: g, Scheduler: sched.EDF{}}, idleBackend{})
	if err != nil {
		t.Fatal(err)
	}
	cam := g.TaskByName("camera").ID
	for _, c := range []struct{ give, want float64 }{{100, 20}, {1, 5}, {12, 12}} {
		got, err := k.SetRate(cam, c.give)
		if err != nil || got != c.want || k.Rate(cam) != c.want {
			t.Errorf("SetRate(%v) = %v, %v; Rate %v; want %v", c.give, got, err, k.Rate(cam), c.want)
		}
	}
	if _, err := k.SetRate(999, 10); err == nil {
		t.Error("SetRate on an unknown task accepted")
	}
}
