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
	if _, err := k.SetRate(g.TaskByName("control").ID, 10); err == nil {
		t.Error("SetRate on a data-triggered task accepted")
	}
	if _, err := k.SetRate(999, 10); err == nil {
		t.Error("SetRate on an unknown task accepted")
	}
}

// queueBackend runs kernel deliveries and captures on an event queue and
// never dispatches: enough to observe capture timing.
type queueBackend struct{ q *simtime.EventQueue }

func (b queueBackend) DeliverAfter(now simtime.Time, d simtime.Duration, fn func(simtime.Time)) {
	if err := b.q.Schedule(now+d, fn); err != nil {
		panic(err)
	}
}
func (queueBackend) Wake(simtime.Time)                       {}
func (queueBackend) ProcState(simtime.Time) *sched.ProcState { return &sched.ProcState{} }

// TestCaptureTiming pins when sources capture, in exact float64 instants:
// the first captures at Start's instant in source order, a rate change
// taking effect after the pending capture, a rate change at a capture's own
// instant before and after it in event order, Stop, and a second Start.
func TestCaptureTiming(t *testing.T) {
	g := dag.New()
	for _, task := range []dag.Task{
		{Name: "camera", Priority: 2, RelDeadline: 0.05, Rate: 10, MinRate: 5, MaxRate: 20, Exec: exectime.Constant(0.001)},
		{Name: "lidar", Priority: 3, RelDeadline: 0.2, Rate: 4, Exec: exectime.Constant(0.002)},
		{Name: "control", Priority: 1, RelDeadline: 0.05, IsControl: true, Exec: exectime.Constant(0.001)},
	} {
		if _, err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"camera", "control"}, {"lidar", "control"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := simtime.NewEventQueue()
	type capture struct {
		task string
		at   simtime.Time
	}
	var got []capture
	tr := TracerFunc(func(ev Event) {
		if ev.Kind == EventRelease && ev.TaskName != "control" {
			got = append(got, capture{ev.TaskName, ev.T})
		}
	})
	k, err := NewKernel(Config{Graph: g, Scheduler: sched.EDF{}, Tracer: tr}, queueBackend{q})
	if err != nil {
		t.Fatal(err)
	}
	cam := g.TaskByName("camera").ID
	setRate := func(hz float64) func(simtime.Time) {
		return func(simtime.Time) {
			if _, err := k.SetRate(cam, hz); err != nil {
				t.Error(err)
			}
		}
	}
	next := func(at simtime.Time, hz float64) simtime.Time { return at + simtime.Duration(1/hz) }

	q.RunUntil(0.3)
	c0 := q.Now()
	if err := k.Start(c0); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(c0); err == nil {
		t.Error("second Start accepted")
	}
	c1 := next(c0, 10)
	c2 := next(c1, 10)
	// Between c1 and c2: c2 keeps its instant, c3 follows 20 Hz.
	q.RunUntil((c1 + c2) / 2)
	setRate(20)(q.Now())
	c3 := next(c2, 20)
	c4 := next(c3, 20)
	// At c4, scheduled before c3 fires and so before the capture at c4:
	// the capture at c4 already reads 8 Hz.
	if err := q.Schedule(c4, setRate(8)); err != nil {
		t.Fatal(err)
	}
	c5 := next(c4, 8)
	// At c5, scheduled once c4 has fired and so after the capture at c5:
	// the capture at c5 still reads 8 Hz, the one after it 16 Hz.
	q.RunUntil(c4)
	if err := q.Schedule(c5, setRate(16)); err != nil {
		t.Fatal(err)
	}
	c6 := next(c5, 8)
	c7 := next(c6, 16)
	q.RunUntil(c7)
	// Stop: the pending captures fire without releasing or rescheduling,
	// so the queue drains.
	k.Stop()
	for n := 0; q.Step(); n++ {
		if n > 100 {
			t.Fatal("captures kept firing after Stop")
		}
	}

	if len(got) < 2 || got[0] != (capture{"camera", c0}) || got[1] != (capture{"lidar", c0}) {
		t.Fatalf("first captures %v, want camera then lidar at %v", got, c0)
	}
	want := map[string][]simtime.Time{"camera": {c0, c1, c2, c3, c4, c5, c6, c7}}
	for l := c0; l <= c7; l = next(l, 4) {
		want["lidar"] = append(want["lidar"], l)
	}
	for task, ats := range want {
		var gotAts []simtime.Time
		for _, c := range got {
			if c.task == task {
				gotAts = append(gotAts, c.at)
			}
		}
		if len(gotAts) != len(ats) {
			t.Fatalf("%s captured at %v, want %v", task, gotAts, ats)
		}
		for i := range ats {
			if gotAts[i] != ats[i] {
				t.Fatalf("%s capture %d at %v, want exactly %v (all: %v)", task, i, gotAts[i], ats[i], gotAts)
			}
		}
	}
}
