package rt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

// fastGraph is a small chain with millisecond-scale tasks so wall-clock
// tests finish quickly.
func fastGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	add := func(task dag.Task) {
		if _, err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	add(dag.Task{
		Name: "sensor", Priority: 3, RelDeadline: 30 * ms,
		Rate: 50, MinRate: 20, MaxRate: 100,
		Exec: exectime.Constant(0.2 * ms),
	})
	add(dag.Task{
		Name: "perceive", Priority: 2, RelDeadline: 40 * ms,
		Exec: exectime.Constant(1 * ms),
	})
	add(dag.Task{
		Name: "control", Priority: 1, RelDeadline: 30 * ms, IsControl: true,
		Exec: exectime.Constant(0.5 * ms),
	})
	for _, e := range [][2]string{{"sensor", "perceive"}, {"perceive", "control"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	g := fastGraph(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "nil graph", cfg: Config{Kernel: lifecycle.Config{Scheduler: sched.EDF{}}, NumProcs: 1}},
		{name: "nil scheduler", cfg: Config{Kernel: lifecycle.Config{Graph: g}, NumProcs: 1}},
		{name: "zero procs", cfg: Config{Kernel: lifecycle.Config{Graph: g, Scheduler: sched.EDF{}}}},
		{name: "tracking error without dynamic", cfg: Config{
			Kernel: lifecycle.Config{Graph: g, Scheduler: sched.EDF{}}, NumProcs: 1,
			TrackingError: func(simtime.Time) float64 { return 0 },
		}},
		{name: "job-decided callback", cfg: Config{
			Kernel: lifecycle.Config{
				Graph: g, Scheduler: sched.EDF{},
				OnJobDecided: func(simtime.Time, *sched.Job, bool) {},
			},
			NumProcs: 1,
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestPipelineRunsOnWallClock(t *testing.T) {
	g := fastGraph(t)
	var cmds atomic.Uint64
	var lastE2E atomic.Int64
	ex, err := New(Config{
		Kernel: lifecycle.Config{
			Graph:     g,
			Scheduler: sched.EDF{},
			Seed:      1,
			OnControl: func(cmd lifecycle.ControlCommand) {
				cmds.Add(1)
				lastE2E.Store(int64(cmd.EndToEndLatency().ToDuration()))
			},
		},
		NumProcs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(); err == nil {
		t.Error("double Start accepted")
	}
	time.Sleep(400 * time.Millisecond)
	ex.Stop()
	ex.Stop() // idempotent

	st := ex.Stats()
	if got := cmds.Load(); got < 5 {
		t.Errorf("got %d control commands in 400ms at 50 Hz, want >= 5", got)
	}
	if st.ControlCommands != cmds.Load() {
		t.Errorf("counter %d != callback count %d", st.ControlCommands, cmds.Load())
	}
	if st.MissRatio() > 0.2 {
		t.Errorf("miss ratio %.2f on a trivially feasible graph", st.MissRatio())
	}
	// End-to-end latency should be a few ms (0.2+1+0.5 plus scheduling).
	if e2e := time.Duration(lastE2E.Load()); e2e <= 0 || e2e > 100*time.Millisecond {
		t.Errorf("end-to-end latency %v out of range", e2e)
	}
}

func TestDeadlineMissesUnderOverloadWallClock(t *testing.T) {
	g := dag.New()
	if _, err := g.AddTask(dag.Task{
		Name: "sensor", Priority: 2, RelDeadline: 20 * ms,
		Rate: 100, MinRate: 100, MaxRate: 100,
		Exec: exectime.Constant(0.1 * ms),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(dag.Task{
		Name: "heavy", Priority: 1, RelDeadline: 15 * ms, IsControl: true,
		Exec: exectime.Constant(25 * ms), // cannot meet its deadline
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeByName("sensor", "heavy"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ex, err := New(Config{Kernel: lifecycle.Config{Graph: g, Scheduler: sched.EDF{}, Seed: 1}, NumProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	ex.Stop()
	if st := ex.Stats(); st.Missed == 0 {
		t.Errorf("no misses under structural overload: %+v", st)
	}
}

func TestHCPerfCoordinationOnWallClock(t *testing.T) {
	g := fastGraph(t)
	dyn := sched.NewDynamic(0.02)
	ex, err := New(Config{
		Kernel:   lifecycle.Config{Graph: g, Scheduler: dyn, Seed: 1},
		NumProcs: 2,
		// A persistent tracking error drives u upward.
		TrackingError: func(simtime.Time) float64 { return 2 },
		ControlPeriod: 20 * time.Millisecond,
		AdaptPeriod:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	ex.Stop()
	if st := ex.Stats(); st.ControlCommands == 0 {
		t.Error("no control commands under coordination")
	}
	if u := dyn.NominalU(); u <= 0 {
		t.Errorf("nominal u = %v after sustained error, want > 0", u)
	}
	if g := dyn.Gamma(); g < 0 || g > dyn.GammaCap {
		t.Errorf("γ = %v outside [0, cap]", g)
	}
}

// TestRateAdapterActsOnWallClock: the external coordinator retunes source
// rates on wall clock, and DisableExternal leaves them alone.
func TestRateAdapterActsOnWallClock(t *testing.T) {
	sensorRate := func(disableExternal bool) float64 {
		g := fastGraph(t)
		ex, err := New(Config{
			Kernel:          lifecycle.Config{Graph: g, Scheduler: sched.NewDynamic(0.02), Seed: 1},
			NumProcs:        2,
			TrackingError:   func(simtime.Time) float64 { return 0 },
			DisableExternal: disableExternal,
			ControlPeriod:   20 * time.Millisecond,
			AdaptPeriod:     100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(550 * time.Millisecond)
		ex.Stop()
		ex.mu.Lock()
		defer ex.mu.Unlock()
		return ex.k.Rate(g.TaskByName("sensor").ID)
	}
	const initial = 50 // fastGraph's sensor rate
	if got := sensorRate(false); got == initial {
		t.Errorf("sensor rate still %v Hz after five adaptation periods", got)
	}
	if got := sensorRate(true); got != initial {
		t.Errorf("sensor rate moved to %v Hz with the external coordinator disabled", got)
	}
}

// TestShutdownBoundedWithWedgedWorker pins the bounded-shutdown contract: a
// worker blocked in an OnControl callback must not block Shutdown past its
// context deadline, and the straggler must still drain once it unblocks.
func TestShutdownBoundedWithWedgedWorker(t *testing.T) {
	wedged, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ex, err := New(Config{
		Kernel: lifecycle.Config{
			Graph: fastGraph(t), Scheduler: sched.EDF{}, Seed: 1,
			OnControl: func(lifecycle.ControlCommand) {
				once.Do(func() { close(wedged) })
				<-release
			},
		},
		NumProcs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wedged:
	case <-time.After(5 * time.Second):
		t.Fatal("no control command within 5s")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err = ex.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil while a worker was wedged")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Errorf("Shutdown blocked %v despite a 150ms deadline", waited)
	}

	// Once the callback returns, the straggler exits and a second Shutdown
	// drains cleanly.
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := ex.Shutdown(ctx2); err != nil {
		t.Errorf("drain after release: %v", err)
	}
}
