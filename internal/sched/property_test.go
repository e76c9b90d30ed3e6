package sched

// Property tests for the Dynamic scheduler (paper §V): randomized queues
// check the two structural guarantees the rest of the system leans on —
// γ = 0 degenerates to deadline-driven dispatch, and the Eq. 11 γmax search
// never reports a γ under which the queue is unschedulable.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/simtime"
)

// randomJobs builds a random ready queue. With exec <= 0 each job gets its
// own random execution-time estimate; otherwise all jobs share exec.
func randomJobs(rng *rand.Rand, n int, exec simtime.Duration) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		c := exec
		if c <= 0 {
			c = simtime.Duration(0.001 + rng.Float64()*0.03)
		}
		release := simtime.Time(rng.Float64() * 0.05)
		rel := simtime.Duration(0.02 + rng.Float64()*0.2)
		jobs[i] = &Job{
			Task: &dag.Task{
				ID:          dag.TaskID(rng.Intn(8)), // collisions exercise tie-breaks
				Name:        "t",
				Priority:    rng.Intn(23) + 1,
				RelDeadline: rel,
				Exec:        exectime.Constant(c),
			},
			Release:     release,
			AbsDeadline: release + simtime.Time(rel),
			EstExec:     c,
		}
	}
	return jobs
}

// drain repeatedly selects and removes jobs until the queue is empty,
// returning the dispatched jobs in order.
func drain(s Scheduler, queue []*Job, st *ProcState) []*Job {
	q := append([]*Job(nil), queue...)
	var order []*Job
	for len(q) > 0 {
		idx := s.Select(0, q, 0, st)
		if idx < 0 {
			break
		}
		order = append(order, q[idx])
		q = append(q[:idx], q[idx+1:]...)
	}
	return order
}

// TestDynamicGammaZeroMatchesEDF: with γ = 0 the dynamic priority reduces
// to the latest feasible start d_i = deadline_i − c_i; when all jobs share
// one execution-time estimate that is a constant shift of the EDF key, so
// the full dispatch sequence — tie-breaks included — must equal EDF's.
func TestDynamicGammaZeroMatchesEDF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := &ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	for trial := 0; trial < 300; trial++ {
		jobs := randomJobs(rng, 1+rng.Intn(24), simtime.Duration(0.005))
		dyn := NewDynamic(0) // γ stays 0: no u installed, no Recompute
		gotOrder := drain(dyn, jobs, st)
		wantOrder := drain(EDF{}, jobs, st)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: dispatched %d jobs, EDF dispatched %d", trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: dispatch %d is job(dl=%v rel=%v id=%d), EDF picked job(dl=%v rel=%v id=%d)",
					trial, i,
					gotOrder[i].AbsDeadline, gotOrder[i].Release, gotOrder[i].Task.ID,
					wantOrder[i].AbsDeadline, wantOrder[i].Release, wantOrder[i].Task.ID)
			}
		}
	}
}

// TestGammaMaxNeverAdmitsUnschedulable: for random queues, processor pools
// and controller signals, Recompute must only report a γmax that satisfies
// the Eq. 11 constraint set, and the Eq. 12 clamp must keep the effective γ
// inside [0, γmax] — with γ forced to 0 whenever the queue is overloaded.
func TestGammaMaxNeverAdmitsUnschedulable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		jobs := randomJobs(rng, rng.Intn(24), 0)
		np := 1 + rng.Intn(4)
		st := &ProcState{NumProcs: np, Remaining: make([]simtime.Duration, np)}
		for p := range st.Remaining {
			if rng.Intn(2) == 0 {
				st.Remaining[p] = simtime.Duration(rng.Float64() * 0.02)
			}
		}
		d := NewDynamic(0)
		u := (rng.Float64()*3 - 1) * d.GammaCap // spans below 0 and above the cap
		d.SetNominalU(u)
		now := simtime.Time(rng.Float64() * 0.01)
		d.Recompute(now, jobs, st)

		gamma, gammaMax := d.Gamma(), d.GammaMax()
		if gammaMax < 0 || gammaMax > d.GammaCap {
			t.Fatalf("trial %d: γmax %v outside [0, cap=%v]", trial, gammaMax, d.GammaCap)
		}
		if gamma < 0 || gamma > gammaMax {
			t.Fatalf("trial %d: clamp violated: γ=%v outside [0, γmax=%v] (u=%v)", trial, gamma, gammaMax, u)
		}
		if want := clampGamma(u, gammaMax); gamma != want {
			t.Fatalf("trial %d: γ=%v, Eq. 12 clamp of u=%v gives %v", trial, gamma, u, want)
		}
		if d.Overloaded() {
			if gamma != 0 || gammaMax != 0 {
				t.Fatalf("trial %d: overloaded queue admitted γ=%v γmax=%v, want 0", trial, gamma, gammaMax)
			}
			if len(jobs) > 0 && d.feasible(0, now, jobs, st) {
				t.Fatalf("trial %d: flagged overloaded but γ=0 is feasible", trial)
			}
			continue
		}
		if len(jobs) > 0 && !d.feasible(gammaMax, now, jobs, st) {
			t.Fatalf("trial %d: Recompute admitted unschedulable queue: γmax=%v infeasible for %d jobs on %d procs",
				trial, gammaMax, len(jobs), np)
		}
	}
}

// TestCheckOrderIsStableSort pins the order check serves jobs in: for
// random queues of 0–200 jobs, with repeated keys and ±Inf latest starts,
// and several candidate γ checked one after another without a re-capture,
// each check's order equals a stable sort of the arrival order by P_i(γ).
// The insertion sort starts from the previous check's order, so only its
// (key, index) tie-break makes equal keys keep arrival order.
func TestCheckOrderIsStableSort(t *testing.T) {
	const np, base = 2.0, 0.0
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(201)
		jobs := make([]*Job, n)
		for i := range jobs {
			// Priorities, deadlines and γ below are small multiples of
			// powers of two, so P_i(γ) is exact and ties are frequent.
			deadline := simtime.Time(rng.Intn(8)) / 4
			switch rng.Intn(16) {
			case 0:
				deadline = simtime.Time(math.Inf(1))
			case 1:
				deadline = simtime.Time(math.Inf(-1))
			}
			exec := simtime.Duration(rng.Intn(4)) / 8
			jobs[i] = &Job{
				Task:        &dag.Task{Priority: 1 + rng.Intn(4)},
				AbsDeadline: deadline,
				EstExec:     exec,
			}
		}
		d := NewDynamic(0)
		d.capture(0, jobs)
		for c := 0; c < 8; c++ {
			gamma := []float64{0, 0.125, 0.25, 0.5, 1, 2, rng.Float64()}[rng.Intn(7)]
			d.check(gamma, np, base)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			key := func(i int) float64 { return gamma*float64(jobs[i].Task.Priority) + float64(jobs[i].LatestStart()) }
			sort.SliceStable(want, func(a, b int) bool { return key(want[a]) < key(want[b]) })
			if !slices.Equal(d.order, want) {
				t.Fatalf("trial %d, check %d (γ=%v, %d jobs): order %v, stable sort %v", trial, c, gamma, n, d.order, want)
			}
		}
	}
}

// TestRecomputeSteadyStateAllocs pins the γ search's scratch-buffer reuse:
// once its buffers are sized, Recompute allocates nothing.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jobs := randomJobs(rng, 32, 0)
	st := &ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	d := NewDynamic(0.02)
	d.SetNominalU(0.01)
	d.Recompute(0, jobs, st)
	allocs := testing.AllocsPerRun(100, func() { d.Recompute(0, jobs, st) })
	if allocs != 0 {
		t.Errorf("steady-state Recompute allocates %v objects/op, want 0", allocs)
	}
}
