package dag

import (
	"strings"
	"testing"
	"testing/quick"

	"hcperf/internal/exectime"
	"hcperf/internal/simtime"
)

func validTask(name string) Task {
	return Task{
		Name:        name,
		Priority:    5,
		RelDeadline: 50 * simtime.Millisecond,
		Rate:        10,
		MinRate:     5,
		MaxRate:     20,
		Exec:        exectime.Constant(10 * simtime.Millisecond),
	}
}

func TestAddTaskDefaults(t *testing.T) {
	g := New()
	task, err := g.AddTask(validTask("a"))
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != 0 {
		t.Errorf("first task ID = %d, want 0", task.ID)
	}
	if task.Criticality != LowCriticality {
		t.Errorf("default criticality = %v, want low", task.Criticality)
	}
	if task.Processor != -1 {
		t.Errorf("default processor = %d, want -1", task.Processor)
	}
}

func TestAddTaskValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Task)
	}{
		{name: "empty name", mutate: func(tk *Task) { tk.Name = "" }},
		{name: "zero deadline", mutate: func(tk *Task) { tk.RelDeadline = 0 }},
		{name: "nil exec", mutate: func(tk *Task) { tk.Exec = nil }},
		{name: "negative rate", mutate: func(tk *Task) { tk.Rate = -1 }},
		{name: "inverted range", mutate: func(tk *Task) { tk.MinRate, tk.MaxRate = 20, 5 }},
		{name: "rate below range", mutate: func(tk *Task) { tk.Rate = 1 }},
		{name: "rate above range", mutate: func(tk *Task) { tk.Rate = 100 }},
		{name: "bad criticality", mutate: func(tk *Task) { tk.Criticality = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := New()
			task := validTask("x")
			tt.mutate(&task)
			if _, err := g.AddTask(task); err == nil {
				t.Errorf("AddTask accepted invalid task (%s)", tt.name)
			}
		})
	}
}

func TestDuplicateName(t *testing.T) {
	g := New()
	if _, err := g.AddTask(validTask("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(validTask("a")); err == nil {
		t.Error("duplicate task name accepted")
	}
}

func TestEdges(t *testing.T) {
	g := New()
	a, _ := g.AddTask(validTask("a"))
	b, _ := g.AddTask(validTask("b"))
	if err := g.AddEdge(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a.ID, b.ID); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(a.ID, a.ID); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge(a.ID, 99); err == nil {
		t.Error("edge to unknown task accepted")
	}
	if err := g.AddEdgeByName("a", "missing"); err == nil {
		t.Error("edge to unknown name accepted")
	}
	if err := g.AddEdgeByName("missing", "a"); err == nil {
		t.Error("edge from unknown name accepted")
	}
	succ := g.Successors(a.ID)
	if len(succ) != 1 || succ[0] != b.ID {
		t.Errorf("Successors(a) = %v, want [b]", succ)
	}
	pred := g.Predecessors(b.ID)
	if len(pred) != 1 || pred[0] != a.ID {
		t.Errorf("Predecessors(b) = %v, want [a]", pred)
	}
	if g.Successors(99) != nil || g.Predecessors(99) != nil {
		t.Error("adjacency of unknown task should be nil")
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := New()
	a, _ := g.AddTask(validTask("a"))
	b, _ := g.AddTask(validTask("b"))
	c, _ := g.AddTask(validTask("c"))
	if err := g.AddEdge(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	srcs := g.Sources()
	if len(srcs) != 1 || srcs[0].Name != "a" {
		t.Errorf("Sources = %v", names(srcs))
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0].Name != "c" {
		t.Errorf("Sinks = %v", names(sinks))
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New()
	a, _ := g.AddTask(validTask("a"))
	b, _ := g.AddTask(validTask("b"))
	c, _ := g.AddTask(validTask("c"))
	for _, e := range [][2]TaskID{{a.ID, b.ID}, {b.ID, c.ID}, {c.ID, b.ID}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	err := g.Validate()
	if err == nil {
		t.Fatal("cyclic graph validated")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention cycle", err)
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty graph validated")
	}
}

func TestValidateSourceNeedsRate(t *testing.T) {
	g := New()
	task := validTask("src")
	task.Rate, task.MinRate, task.MaxRate = 0, 0, 0
	if _, err := g.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("source task without rate validated")
	}
}

func TestTopoOrder(t *testing.T) {
	g := New()
	// Diamond: a -> {b, c} -> d.
	a, _ := g.AddTask(validTask("a"))
	b, _ := g.AddTask(validTask("b"))
	c, _ := g.AddTask(validTask("c"))
	d, _ := g.AddTask(validTask("d"))
	for _, e := range [][2]TaskID{{a.ID, b.ID}, {a.ID, c.ID}, {b.ID, d.ID}, {c.ID, d.ID}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range [][2]TaskID{{a.ID, b.ID}, {a.ID, c.ID}, {b.ID, d.ID}, {c.ID, d.ID}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("topo order violates edge %v", e)
		}
	}
	// Deterministic: lower IDs first among ready tasks.
	if order[1] != b.ID || order[2] != c.ID {
		t.Errorf("topo order %v not ID-deterministic", order)
	}
}

func TestLookup(t *testing.T) {
	g := New()
	a, _ := g.AddTask(validTask("a"))
	if got := g.Task(a.ID); got != a {
		t.Error("Task(id) did not return the stored task")
	}
	if g.Task(-1) != nil || g.Task(5) != nil {
		t.Error("Task out of range should be nil")
	}
	if got := g.TaskByName("a"); got != a {
		t.Error("TaskByName did not return the stored task")
	}
	if g.TaskByName("zzz") != nil {
		t.Error("TaskByName unknown should be nil")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	tasks := g.Tasks()
	if len(tasks) != 1 || tasks[0] != a {
		t.Errorf("Tasks = %v", names(tasks))
	}
}

func TestCriticalPathNominal(t *testing.T) {
	g := New()
	mk := func(name string, execMS simtime.Duration) *Task {
		task := validTask(name)
		task.Exec = exectime.Constant(execMS * simtime.Millisecond)
		out, err := g.AddTask(task)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := mk("a", 10)
	b := mk("b", 20)
	c := mk("c", 5)
	d := mk("d", 1)
	for _, e := range [][2]TaskID{{a.ID, b.ID}, {a.ID, c.ID}, {b.ID, d.ID}, {c.ID, d.ID}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := g.CriticalPathNominal()
	if err != nil {
		t.Fatal(err)
	}
	want := map[TaskID]simtime.Duration{
		a.ID: 10 * simtime.Millisecond,
		b.ID: 30 * simtime.Millisecond,
		c.ID: 15 * simtime.Millisecond,
		d.ID: 31 * simtime.Millisecond,
	}
	for id, w := range want {
		if got := cp[id]; got != w {
			t.Errorf("critical path of %d = %v, want %v", id, got, w)
		}
	}
}

func TestDOT(t *testing.T) {
	g, err := MotivationGraph()
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph", `"sensor_fusion"`, `"planning" -> "control"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestMotivationGraph(t *testing.T) {
	g, err := MotivationGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 {
		t.Errorf("motivation graph has %d tasks, want 8", g.Len())
	}
	ctrl := g.TaskByName("control")
	if ctrl == nil || !ctrl.IsControl || ctrl.Priority != 1 {
		t.Error("control task missing, or not marked IsControl with priority 1")
	}
	if len(g.Sources()) != 2 {
		t.Errorf("motivation graph has %d sources, want 2", len(g.Sources()))
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0].Name != "control" {
		t.Errorf("sinks = %v, want [control]", names(sinks))
	}
}

func TestADGraph23(t *testing.T) {
	g, err := ADGraph23()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 23 {
		t.Fatalf("AD graph has %d tasks, want 23", g.Len())
	}
	// Unique priorities 1..23, control highest.
	seen := make(map[int]string, 23)
	for _, task := range g.Tasks() {
		if prev, dup := seen[task.Priority]; dup {
			t.Errorf("priority %d shared by %q and %q", task.Priority, prev, task.Name)
		}
		seen[task.Priority] = task.Name
		if task.Priority < 1 || task.Priority > 23 {
			t.Errorf("task %q priority %d outside 1..23", task.Name, task.Priority)
		}
	}
	if seen[1] != "control" {
		t.Errorf("priority 1 belongs to %q, want control", seen[1])
	}
	// GPS/IMU has the paper's adjustable range.
	gps := g.TaskByName("gps_imu")
	if gps == nil || gps.MinRate != 10 || gps.MaxRate != 100 {
		t.Error("gps_imu missing or rate range is not [10,100] Hz")
	}
	if len(g.Sources()) != 6 {
		t.Errorf("AD graph has %d sources, want 6", len(g.Sources()))
	}
	ctrl := g.TaskByName("control")
	if ctrl == nil || !ctrl.IsControl {
		t.Fatal("control task missing or unmarked")
	}
	// Control must be reachable from every perception source (end-to-end
	// chains exist).
	for _, src := range []string{"camera_front", "lidar_scan", "radar_scan", "gps_imu"} {
		if !reaches(t, g, src, "control") {
			t.Errorf("no path from %s to control", src)
		}
	}
	// High-criticality set covers the planning/control spine for EDF-VD.
	for _, name := range []string{"sensor_fusion", "prediction", "motion_planning", "control"} {
		if task := g.TaskByName(name); task == nil || task.Criticality != HighCriticality {
			t.Errorf("task %s should be high-criticality", name)
		}
	}
}

func reaches(t *testing.T, g *Graph, from, to string) bool {
	t.Helper()
	start := g.TaskByName(from)
	goal := g.TaskByName(to)
	if start == nil || goal == nil {
		t.Fatalf("unknown task %s or %s", from, to)
	}
	seenIDs := map[TaskID]bool{start.ID: true}
	queue := []TaskID{start.ID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id == goal.ID {
			return true
		}
		for _, s := range g.Successors(id) {
			if !seenIDs[s] {
				seenIDs[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

func names(tasks []*Task) []string {
	out := make([]string, len(tasks))
	for i, task := range tasks {
		out[i] = task.Name
	}
	return out
}

// Property: random DAGs built with forward edges always validate, and the
// returned topo order respects every edge.
func TestQuickRandomForwardDAGs(t *testing.T) {
	f := func(n uint8, edges []uint16) bool {
		size := int(n%12) + 2
		g := New()
		for i := 0; i < size; i++ {
			task := validTask(string(rune('a' + i)))
			if _, err := g.AddTask(task); err != nil {
				return false
			}
		}
		for _, e := range edges {
			from := int(e) % size
			to := int(e>>4) % size
			if from >= to {
				continue // forward edges only: guaranteed acyclic
			}
			_ = g.AddEdge(TaskID(from), TaskID(to)) // duplicate edges are rejected, fine
		}
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for i := 0; i < size; i++ {
			for _, s := range g.Successors(TaskID(i)) {
				if pos[TaskID(i)] >= pos[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestADGraphDualControl(t *testing.T) {
	g, err := ADGraphDualControl()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 24 {
		t.Fatalf("dual-control graph has %d tasks, want 24", g.Len())
	}
	sinks := g.Sinks()
	if len(sinks) != 2 {
		t.Fatalf("dual-control graph has %d sinks, want 2", len(sinks))
	}
	for _, s := range sinks {
		if !s.IsControl {
			t.Errorf("sink %s not marked IsControl", s.Name)
		}
		if p := g.PrimaryPred(s.ID); g.Task(p).Name != "trajectory_postproc" {
			t.Errorf("sink %s primary is %s, want trajectory_postproc", s.Name, g.Task(p).Name)
		}
	}
	// Priorities stay unique.
	seen := make(map[int]string, 24)
	for _, task := range g.Tasks() {
		if prev, dup := seen[task.Priority]; dup {
			t.Errorf("priority %d shared by %q and %q", task.Priority, prev, task.Name)
		}
		seen[task.Priority] = task.Name
	}
	if seen[1] != "lon_control" || seen[2] != "lat_control" {
		t.Errorf("control priorities wrong: p1=%s p2=%s", seen[1], seen[2])
	}
	if !reaches(t, g, "lidar_scan", "lon_control") || !reaches(t, g, "lidar_scan", "lat_control") {
		t.Error("perception chain does not reach both control sinks")
	}
}

// TestCloneLeavesSourceAlone: rewriting a clone's tasks and extending its
// structure change nothing in the graph it was cloned from.
func TestCloneLeavesSourceAlone(t *testing.T) {
	g, err := ADGraph23()
	if err != nil {
		t.Fatal(err)
	}
	before := g.DOT()
	c := g.Clone()
	cam := c.TaskByName("camera_front")
	cam.Rate, cam.MinRate, cam.MaxRate = 30, 30, 60
	cam.Exec = exectime.Constant(simtime.Millisecond)
	extra, err := c.AddTask(validTask("extra"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(cam.ID, extra.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdgeByName("control", "extra"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.DOT(); got != before || g.Len() != 23 || g.TaskByName("extra") != nil {
		t.Fatal("extending the clone changed the source's structure")
	}
	if src := g.TaskByName("camera_front"); src.Rate != 15 || src.MaxRate != 30 || src.Exec == cam.Exec {
		t.Fatalf("rewriting the clone's task changed the source's: %+v", src)
	}
	if len(g.Successors(g.TaskByName("control").ID)) != 0 {
		t.Fatal("an edge added to the clone reached the source")
	}
}
