package engine

import (
	"math"
	"testing"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

// chainGraph builds source -> middle -> control with constant exec times.
func chainGraph(t *testing.T, srcExec, midExec, ctlExec, midDeadline simtime.Duration) *dag.Graph {
	t.Helper()
	g := dag.New()
	add := func(task dag.Task) *dag.Task {
		out, err := g.AddTask(task)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	add(dag.Task{
		Name: "source", Priority: 3, RelDeadline: 50 * ms,
		Rate: 10, MinRate: 5, MaxRate: 20,
		Exec: exectime.Constant(srcExec),
	})
	add(dag.Task{
		Name: "middle", Priority: 2, RelDeadline: midDeadline,
		Exec: exectime.Constant(midExec),
	})
	add(dag.Task{
		Name: "control", Priority: 1, RelDeadline: 50 * ms, IsControl: true,
		Exec: exectime.Constant(ctlExec),
	})
	for _, e := range [][2]string{{"source", "middle"}, {"middle", "control"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// taskCounts tallies the lifecycle events each task emits, by kind.
type taskCounts map[dag.TaskID]*[lifecycle.EventControl + 1]uint64

// tracer returns a Tracer that feeds c.
func (c taskCounts) tracer() lifecycle.Tracer {
	return lifecycle.TracerFunc(func(ev lifecycle.Event) {
		if c[ev.Task] == nil {
			c[ev.Task] = new([lifecycle.EventControl + 1]uint64)
		}
		c[ev.Task][ev.Kind]++
	})
}

// count returns how many events of kind task id emitted.
func (c taskCounts) count(id dag.TaskID, kind lifecycle.EventKind) uint64 {
	if c[id] == nil {
		return 0
	}
	return c[id][kind]
}

// released counts task id's releases: an invalid cycle is a release that
// is decided missed on the spot.
func (c taskCounts) released(id dag.TaskID) uint64 {
	return c.count(id, lifecycle.EventRelease) + c.count(id, lifecycle.EventInvalid)
}

func newEngine(t *testing.T, g *dag.Graph, cfg Config) (*Engine, *simtime.EventQueue) {
	t.Helper()
	q := simtime.NewEventQueue()
	cfg.Graph = g
	cfg.Queue = q
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.EDF{}
	}
	if cfg.NumProcs == 0 {
		cfg.NumProcs = 2
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

func TestConfigValidation(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	q := simtime.NewEventQueue()
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "nil graph", cfg: Config{Scheduler: sched.EDF{}, NumProcs: 1, Queue: q}},
		{name: "nil scheduler", cfg: Config{Graph: g, NumProcs: 1, Queue: q}},
		{name: "zero procs", cfg: Config{Graph: g, Scheduler: sched.EDF{}, Queue: q}},
		{name: "nil queue", cfg: Config{Graph: g, Scheduler: sched.EDF{}, NumProcs: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestPipelineRunsEndToEnd(t *testing.T) {
	g := chainGraph(t, 2*ms, 5*ms, 1*ms, 50*ms)
	var cmds []lifecycle.ControlCommand
	e, q := newEngine(t, g, Config{OnControl: func(c lifecycle.ControlCommand) { cmds = append(cmds, c) }})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(1.001)
	// Source at 10 Hz over ~1s: 11 releases (t=0..1.0). Each cycle flows
	// through middle and control (source is marked freshness-critical, so
	// SourceTime tracks the capture instant).
	st := e.Stats()
	if st.Missed != 0 {
		t.Fatalf("unexpected misses: %+v", st)
	}
	if len(cmds) < 10 {
		t.Fatalf("got %d control commands, want >= 10", len(cmds))
	}
	// Each command's timing: release of control job = source release +
	// 2ms + 5ms; response = 1ms; end-to-end = 8ms.
	c := cmds[0]
	if got := c.ResponseTime(); math.Abs(float64(got-1*ms)) > 1e-9 {
		t.Errorf("response time %v, want 1ms", got)
	}
	if got := c.EndToEndLatency(); math.Abs(float64(got-8*ms)) > 1e-9 {
		t.Errorf("end-to-end latency %v, want 8ms", got)
	}
	if c.SourceTime != 0 {
		t.Errorf("first command source time %v, want 0", c.SourceTime)
	}
	if e.Stats().ControlCommands != uint64(len(cmds)) {
		t.Errorf("ControlCommands counter %d != callback count %d", e.Stats().ControlCommands, len(cmds))
	}
}

func TestDeadlineMissDiscardsOutput(t *testing.T) {
	// middle takes 30ms against a 20ms deadline: always late, so control
	// must never run.
	g := chainGraph(t, 1*ms, 30*ms, 1*ms, 20*ms)
	counts := taskCounts{}
	e, q := newEngine(t, g, Config{Tracer: counts.tracer()})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(1)
	st := e.Stats()
	if st.ControlCommands != 0 {
		t.Errorf("control ran %d times despite upstream misses", st.ControlCommands)
	}
	if st.Missed == 0 {
		t.Error("no misses recorded")
	}
	mid := g.TaskByName("middle").ID
	if n := counts.count(mid, lifecycle.EventComplete); n != 0 {
		t.Errorf("middle completed %d on time, want 0", n)
	}
	if counts.count(mid, lifecycle.EventMiss)+counts.count(mid, lifecycle.EventExpire) == 0 {
		t.Error("middle has no recorded misses")
	}
	if n := counts.released(g.TaskByName("control").ID); n != 0 {
		t.Errorf("control released %d times, want 0", n)
	}
}

func TestOverloadExpiresQueuedJobs(t *testing.T) {
	// Single processor, 90ms of scheduled work (middle) released every
	// 50ms: the queue backs up and queued jobs expire before they can
	// start. (Source tasks run off-CPU, so the load must sit on a
	// derived task.)
	g := chainGraph(t, 1*ms, 90*ms, 10*ms, 120*ms)
	g.TaskByName("source").Rate = 20
	e, q := newEngine(t, g, Config{NumProcs: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(3)
	st := e.Stats()
	if st.Expired == 0 {
		t.Errorf("no queued jobs expired under overload: %+v", st)
	}
	if st.MissRatio() <= 0 {
		t.Error("miss ratio not positive under overload")
	}
}

func TestPrimaryTriggerSemantics(t *testing.T) {
	// Two sources at different rates feed a fusion task. Fusion is
	// data-triggered by its primary (first-listed) predecessor and reads
	// the other input at its latest value, so its cadence tracks the
	// primary's rate, not the slower input's.
	build := func(primaryFirst bool) (uint64, uint64) {
		g := dag.New()
		mustAdd := func(task dag.Task) {
			if _, err := g.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		mustAdd(dag.Task{Name: "fast", Priority: 3, RelDeadline: 50 * ms, Rate: 20, MinRate: 20, MaxRate: 20, Exec: exectime.Constant(1 * ms)})
		mustAdd(dag.Task{Name: "slow", Priority: 4, RelDeadline: 250 * ms, Rate: 5, MinRate: 5, MaxRate: 5, Exec: exectime.Constant(1 * ms)})
		mustAdd(dag.Task{Name: "fusion", Priority: 2, RelDeadline: 80 * ms, Exec: exectime.Constant(2 * ms)})
		edges := [][2]string{{"fast", "fusion"}, {"slow", "fusion"}}
		if !primaryFirst {
			edges = [][2]string{{"slow", "fusion"}, {"fast", "fusion"}}
		}
		for _, e := range edges {
			if err := g.AddEdgeByName(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		counts := taskCounts{}
		e, q := newEngine(t, g, Config{Tracer: counts.tracer()})
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		q.RunUntil(2.001)
		return counts.released(g.TaskByName("fusion").ID), e.Stats().Released
	}
	fastPrimary, _ := build(true)
	if fastPrimary < 38 {
		t.Errorf("fusion released %d times with fast primary, want ~41 (fast-triggered)", fastPrimary)
	}
	slowPrimary, _ := build(false)
	if slowPrimary > 12 {
		t.Errorf("fusion released %d times with slow primary, want ~11 (slow-triggered)", slowPrimary)
	}
}

func TestSetSourceRateClamped(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	e, _ := newEngine(t, g, Config{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	src := g.TaskByName("source") // range [5,20]
	got, err := e.SetRate(src.ID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("rate clamped to %v, want 20", got)
	}
	got, err = e.SetRate(src.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("rate clamped to %v, want 5", got)
	}
	if e.Rate(src.ID) != 5 {
		t.Errorf("Rate = %v, want 5", e.Rate(src.ID))
	}
	// Non-source task.
	mid := g.TaskByName("middle")
	if _, err := e.SetRate(mid.ID, 10); err == nil {
		t.Error("SetRate on non-source accepted")
	}
	if _, err := e.SetRate(999, 10); err == nil {
		t.Error("SetRate on unknown task accepted")
	}
}

func TestRateChangeTakesEffect(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	counts := taskCounts{}
	e, q := newEngine(t, g, Config{Tracer: counts.tracer()})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(1)
	src := g.TaskByName("source")
	before := counts.released(src.ID)
	if _, err := e.SetRate(src.ID, 20); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2)
	during := counts.released(src.ID) - before
	if during < 18 {
		t.Errorf("released %d jobs at 20 Hz over 1s, want >= 18", during)
	}
}

func TestWindowStatsReset(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	e, q := newEngine(t, g, Config{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(0.5)
	if e.WindowStats().Released == 0 {
		t.Fatal("window counters empty after activity")
	}
	total := e.Stats().Released
	e.ResetWindow()
	if e.WindowStats().Released != 0 {
		t.Error("ResetWindow did not clear window counters")
	}
	if e.Stats().Released != total {
		t.Error("ResetWindow disturbed total counters")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() lifecycle.Stats {
		g := chainGraph(t, 2*ms, 5*ms, 1*ms, 40*ms)
		// Add jitter via a truncated-normal model on middle to exercise
		// the RNG.
		jitter, err := exectime.NewTruncNormal(5*ms, 2*ms, 3*ms, 8*ms)
		if err != nil {
			t.Fatal(err)
		}
		g.TaskByName("middle").Exec = jitter
		e, q := newEngine(t, g, Config{Seed: 42})
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		q.RunUntil(5)
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

type recordingObserver struct {
	sched.Scheduler
	calls int
}

func (r *recordingObserver) Recompute(simtime.Time, []*sched.Job, *sched.ProcState) { r.calls++ }

func TestQueueObserverNotified(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	obs := &recordingObserver{Scheduler: sched.EDF{}}
	e, q := newEngine(t, g, Config{Scheduler: obs})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(0.5)
	if obs.calls == 0 {
		t.Error("queue observer never notified")
	}
	_ = e
}

func TestDynamicSchedulerIntegration(t *testing.T) {
	g := chainGraph(t, 2*ms, 5*ms, 1*ms, 40*ms)
	dyn := sched.NewDynamic(0.02)
	e, q := newEngine(t, g, Config{Scheduler: dyn})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2)
	if e.Stats().ControlCommands == 0 {
		t.Error("dynamic scheduler produced no control commands")
	}
	if dyn.GammaMax() <= 0 {
		t.Errorf("γmax = %v after light-load run, want > 0", dyn.GammaMax())
	}
}

func TestUtilizationBounds(t *testing.T) {
	g := chainGraph(t, 5*ms, 10*ms, 2*ms, 60*ms)
	e, q := newEngine(t, g, Config{NumProcs: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if e.Utilization() != 0 {
		t.Errorf("utilization before start = %v, want 0", e.Utilization())
	}
	q.RunUntil(2)
	u := e.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0,1]", u)
	}
}

func TestObservedExecUpdates(t *testing.T) {
	g := chainGraph(t, 2*ms, 5*ms, 1*ms, 50*ms)
	e, q := newEngine(t, g, Config{})
	src := g.TaskByName("source")
	if got := e.ObservedExec(src.ID); got != 2*ms {
		t.Errorf("initial observed exec %v, want nominal 2ms", got)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(0.2)
	if got := e.ObservedExec(src.ID); got != 2*ms {
		t.Errorf("observed exec %v after constant-time runs, want 2ms", got)
	}
}

func TestStopHaltsReleases(t *testing.T) {
	g := chainGraph(t, 1*ms, 1*ms, 1*ms, 50*ms)
	counts := taskCounts{}
	e, q := newEngine(t, g, Config{Tracer: counts.tracer()})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("second Start accepted")
	}
	q.RunUntil(0.5)
	e.Stop()
	// Derived jobs already in flight may still release, but no new
	// source cycles should start.
	src := g.TaskByName("source").ID
	srcReleased := counts.released(src)
	q.RunUntil(2.5)
	if counts.released(src) != srcReleased {
		t.Error("source kept releasing after Stop")
	}
}
