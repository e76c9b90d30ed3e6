// Package dag models autonomous-driving task graphs: periodic real-time
// tasks with static priorities, relative deadlines and precedence edges
// forming a directed acyclic graph, exactly the system model of HCPerf
// §III-A.
//
// Source tasks (no incoming edges) are the sensing tasks; they release
// periodically at a configurable rate within [MinRate, MaxRate]. A non-source
// task is data-triggered by its primary predecessor — the first predecessor
// edge added — and reads the latest output of its remaining predecessors
// (Cyber RT channel semantics); it first releases once every predecessor has
// produced at least one output. Sink tasks (no outgoing edges) are the
// control tasks that emit actuation commands.
package dag

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"hcperf/internal/exectime"
	"hcperf/internal/simtime"
)

// Criticality classifies a task for mixed-criticality scheduling (EDF-VD).
type Criticality int

// Criticality levels. LowCriticality tasks may be degraded under overload;
// HighCriticality tasks get virtual deadlines under EDF-VD.
const (
	LowCriticality Criticality = iota + 1
	HighCriticality
)

// String implements fmt.Stringer.
func (c Criticality) String() string {
	switch c {
	case LowCriticality:
		return "low"
	case HighCriticality:
		return "high"
	default:
		return fmt.Sprintf("criticality(%d)", int(c))
	}
}

// TaskID identifies a task within its graph (dense, assigned by AddTask).
type TaskID int

// Task describes one node of the task graph. Spec fields follow Table I of
// the paper; the zero value is not valid — construct via Graph.AddTask.
type Task struct {
	// ID is the dense graph-assigned identifier.
	ID TaskID
	// Name is the unique human-readable task name.
	Name string
	// Priority is the statically configured priority p_i; smaller means
	// higher priority (Apollo convention).
	Priority int
	// RelDeadline is the relative deadline D_i from release.
	RelDeadline simtime.Duration
	// E2E, when positive, additionally bounds the job's completion to
	// E2E after the sensing instant that produced its input data — the
	// end-to-end deadline from sensing to control. Typically set on the
	// control (sink) tasks.
	E2E simtime.Duration
	// Rate is the nominal release frequency in Hz (source tasks only;
	// derived tasks release on predecessor completion).
	Rate float64
	// MinRate and MaxRate bound the allowable rate range for the Task
	// Rate Adapter; both zero means the rate is fixed.
	MinRate, MaxRate float64
	// Criticality is used by EDF-VD.
	Criticality Criticality
	// Processor statically binds the task to a processor index for
	// Apollo-style scheduling; -1 means unbound (global queue).
	Processor int
	// Exec samples the task's execution time.
	Exec exectime.Model
	// IsControl marks the sink task(s) whose completion emits a control
	// command to the vehicle.
	IsControl bool
}

// Validate checks the task's own fields (graph-level checks are separate).
func (t *Task) Validate() error {
	switch {
	case t.Name == "":
		return errors.New("dag: task with empty name")
	case t.RelDeadline <= 0:
		return fmt.Errorf("dag: task %q has non-positive deadline %v", t.Name, t.RelDeadline)
	case t.E2E < 0:
		return fmt.Errorf("dag: task %q has negative end-to-end deadline %v", t.Name, t.E2E)
	case t.Exec == nil:
		return fmt.Errorf("dag: task %q has no execution-time model", t.Name)
	case t.Rate < 0 || t.MinRate < 0 || t.MaxRate < 0:
		return fmt.Errorf("dag: task %q has negative rate bounds", t.Name)
	case t.MinRate > t.MaxRate:
		return fmt.Errorf("dag: task %q rate range [%v,%v] inverted", t.Name, t.MinRate, t.MaxRate)
	case t.MaxRate > 0 && (t.Rate < t.MinRate || t.Rate > t.MaxRate):
		return fmt.Errorf("dag: task %q rate %v outside [%v,%v]", t.Name, t.Rate, t.MinRate, t.MaxRate)
	case t.Criticality != LowCriticality && t.Criticality != HighCriticality:
		return fmt.Errorf("dag: task %q has invalid criticality %d", t.Name, t.Criticality)
	}
	return nil
}

// Graph is a DAG of tasks. Construct with New, then AddTask/AddEdge, then
// Validate (or Finalize) before use.
type Graph struct {
	tasks  []*Task
	byName map[string]TaskID
	succ   [][]TaskID
	pred   [][]TaskID
	topo   []TaskID // cached by Validate
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]TaskID)}
}

// Clone returns a copy of g whose tasks can be rewritten — rates, rate
// bands, execution models — and whose structure can be extended without
// touching g. The tasks' execution models are shared with g: replace a
// task's model rather than change it in place.
func (g *Graph) Clone() *Graph {
	tasks := make([]Task, len(g.tasks))
	c := &Graph{
		tasks:  make([]*Task, len(g.tasks)),
		byName: maps.Clone(g.byName),
		succ:   make([][]TaskID, len(g.succ)),
		pred:   make([][]TaskID, len(g.pred)),
		topo:   g.topo, // never written in place, only replaced
	}
	for i, t := range g.tasks {
		tasks[i] = *t
		c.tasks[i] = &tasks[i]
	}
	// Clipped, so an edge added to either graph reallocates its list
	// instead of writing into the one they share.
	for i := range g.succ {
		c.succ[i] = slices.Clip(g.succ[i])
		c.pred[i] = slices.Clip(g.pred[i])
	}
	return c
}

// AddTask adds a task to the graph, assigning its ID. Criticality defaults
// to LowCriticality and Processor to -1 (unbound) when left zero. The
// returned pointer is the graph's own copy; callers may keep it.
func (g *Graph) AddTask(t Task) (*Task, error) {
	if t.Criticality == 0 {
		t.Criticality = LowCriticality
	}
	if t.Processor == 0 {
		t.Processor = -1
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if _, dup := g.byName[t.Name]; dup {
		return nil, fmt.Errorf("dag: duplicate task name %q", t.Name)
	}
	t.ID = TaskID(len(g.tasks))
	task := &t
	g.tasks = append(g.tasks, task)
	g.byName[t.Name] = t.ID
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.topo = nil
	return task, nil
}

// AddEdge adds the precedence constraint from -> to.
func (g *Graph) AddEdge(from, to TaskID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("dag: edge (%d,%d) references unknown task", from, to)
	}
	if from == to {
		return fmt.Errorf("dag: self edge on task %q", g.tasks[from].Name)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %q -> %q", g.tasks[from].Name, g.tasks[to].Name)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.topo = nil
	return nil
}

// AddEdgeByName adds the precedence constraint from -> to by task names.
func (g *Graph) AddEdgeByName(from, to string) error {
	f, ok := g.byName[from]
	if !ok {
		return fmt.Errorf("dag: unknown task %q", from)
	}
	t, ok := g.byName[to]
	if !ok {
		return fmt.Errorf("dag: unknown task %q", to)
	}
	return g.AddEdge(f, t)
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Task returns the task with the given ID, or nil if out of range.
func (g *Graph) Task(id TaskID) *Task {
	if !g.valid(id) {
		return nil
	}
	return g.tasks[id]
}

// TaskByName returns the named task, or nil if absent.
func (g *Graph) TaskByName(name string) *Task {
	id, ok := g.byName[name]
	if !ok {
		return nil
	}
	return g.tasks[id]
}

// Tasks returns all tasks in ID order as a fresh slice.
func (g *Graph) Tasks() []*Task {
	out := make([]*Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Successors returns the immediate successors of id as a fresh slice.
func (g *Graph) Successors(id TaskID) []TaskID {
	if !g.valid(id) {
		return nil
	}
	return append([]TaskID(nil), g.succ[id]...)
}

// PrimaryPred returns the task's primary (triggering) predecessor: the
// first predecessor edge added. It returns -1 for source tasks.
func (g *Graph) PrimaryPred(id TaskID) TaskID {
	if !g.valid(id) || len(g.pred[id]) == 0 {
		return -1
	}
	return g.pred[id][0]
}

// Predecessors returns ipred(τ) — the immediate predecessors — as a fresh
// slice.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	if !g.valid(id) {
		return nil
	}
	return append([]TaskID(nil), g.pred[id]...)
}

// Sources returns the tasks with no incoming edges (sensing tasks).
func (g *Graph) Sources() []*Task {
	var out []*Task
	for i, t := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Sinks returns the tasks with no outgoing edges (control tasks).
func (g *Graph) Sinks() []*Task {
	var out []*Task
	for i, t := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks graph-level invariants: at least one task, acyclicity,
// per-task validity, and that every source task has a positive rate. On
// success the topological order is cached.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return errors.New("dag: empty graph")
	}
	for _, t := range g.tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, t := range g.Sources() {
		if t.Rate <= 0 {
			return fmt.Errorf("dag: source task %q needs a positive rate", t.Name)
		}
	}
	if g.topo == nil {
		// Acyclicity only changes through AddTask/AddEdge, which clear the
		// cache; a cached order proves the structure is still a DAG.
		topo, err := g.computeTopo()
		if err != nil {
			return err
		}
		g.topo = topo
	}
	return nil
}

// TopoOrder returns a topological order of the task IDs. It validates the
// graph if it has not been validated since the last mutation.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	if g.topo == nil {
		topo, err := g.computeTopo()
		if err != nil {
			return nil, err
		}
		g.topo = topo
	}
	return append([]TaskID(nil), g.topo...), nil
}

// computeTopo runs Kahn's algorithm, preferring lower IDs for determinism.
func (g *Graph) computeTopo() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.tasks {
		indeg[i] = len(g.pred[i])
	}
	var ready []TaskID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		// Extract the lowest ready ID (same deterministic order a sort
		// would give, without sorting the whole frontier every round).
		mi := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[mi] {
				mi = i
			}
		}
		id := ready[mi]
		ready[mi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		var cyc []string
		for i, d := range indeg {
			if d > 0 {
				cyc = append(cyc, g.tasks[i].Name)
			}
		}
		return nil, fmt.Errorf("dag: cycle involving tasks %s", strings.Join(cyc, ", "))
	}
	return order, nil
}

// CriticalPathNominal returns, for each task, the sum of nominal execution
// times along the longest (in nominal time) path ending at that task,
// including the task itself. Useful for sanity-checking end-to-end budgets
// against deadlines.
func (g *Graph) CriticalPathNominal() (map[TaskID]simtime.Duration, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := make(map[TaskID]simtime.Duration, len(topo))
	for _, id := range topo {
		best := simtime.Duration(0)
		for _, p := range g.pred[id] {
			if out[p] > best {
				best = out[p]
			}
		}
		out[id] = best + g.tasks[id].Exec.Nominal()
	}
	return out, nil
}

// DOT renders the graph in Graphviz dot format for inspection.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph tasks {\n  rankdir=LR;\n")
	for _, t := range g.tasks {
		fmt.Fprintf(&b, "  %q [label=\"%s\\np=%d D=%v\"];\n", t.Name, t.Name, t.Priority, t.RelDeadline)
	}
	for i, succs := range g.succ {
		for _, s := range succs {
			fmt.Fprintf(&b, "  %q -> %q;\n", g.tasks[i].Name, g.tasks[s].Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
