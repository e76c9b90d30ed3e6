package sched

// The on-demand γ search against the eager search it replaced: Recompute
// now only captures the search's inputs, and the search runs at the first
// read of γ. eagerDynamic is the eager search, kept here as the oracle.

import (
	"math"
	"math/rand"
	"testing"

	"hcperf/internal/dag"
	"hcperf/internal/simtime"
)

// eagerDynamic runs the whole γ search inside Recompute, with no shortcut:
// every candidate γ re-sorts and re-checks the queue.
type eagerDynamic struct {
	GammaCap    float64
	BisectIters int

	nominalU   float64
	gamma      float64
	gammaMax   float64
	overloaded bool

	prio, latest, exec, slack, keys []float64
	order                           []int

	// rebisected counts searches whose clamped γ failed Eq. 11.
	rebisected int
}

func (d *eagerDynamic) capture(now simtime.Time, ready []*Job) {
	n := len(ready)
	d.prio = make([]float64, n)
	d.latest = make([]float64, n)
	d.exec = make([]float64, n)
	d.slack = make([]float64, n)
	d.keys = make([]float64, n)
	d.order = make([]int, n)
	for i, j := range ready {
		d.prio[i] = float64(j.Task.Priority)
		d.latest[i] = float64(j.LatestStart())
		d.exec[i] = float64(j.EstExec)
		d.slack[i] = float64(j.AbsDeadline - now)
		d.order[i] = i
	}
}

func (d *eagerDynamic) Recompute(now simtime.Time, ready []*Job, state *ProcState) {
	d.capture(now, ready)
	np := float64(state.NumProcs)
	base := 0.0
	if np > 0 {
		base = float64(state.TotalRemaining()) / np
	}
	switch {
	case len(ready) == 0:
		d.gammaMax = d.GammaCap
		d.overloaded = false
	case !d.check(0, np, base):
		d.gammaMax = 0
		d.overloaded = true
	case d.check(d.GammaCap, np, base):
		d.gammaMax = d.GammaCap
		d.overloaded = false
	default:
		d.gammaMax = d.bisect(d.GammaCap, np, base)
		d.overloaded = false
	}
	d.gamma = clampGamma(d.nominalU, d.gammaMax)
	if len(ready) > 0 && d.gamma > 0 && d.gamma < d.gammaMax && !d.check(d.gamma, np, base) {
		d.rebisected++
		d.gammaMax = d.bisect(d.gamma, np, base)
		d.gamma = d.gammaMax
	}
}

func (d *eagerDynamic) bisect(hi, np, base float64) float64 {
	lo := 0.0
	iters := d.BisectIters
	if iters <= 0 {
		iters = 24
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if d.check(mid, np, base) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (d *eagerDynamic) feasible(gamma float64, now simtime.Time, ready []*Job, state *ProcState) bool {
	np := float64(state.NumProcs)
	if np <= 0 {
		return false
	}
	d.capture(now, ready)
	return d.check(gamma, np, float64(state.TotalRemaining())/np)
}

func (d *eagerDynamic) check(gamma, np, base float64) bool {
	if np <= 0 {
		return false
	}
	keys, order := d.keys, d.order
	for i := range keys {
		keys[i] = gamma*d.prio[i] + d.latest[i]
	}
	for k := 1; k < len(order); k++ {
		x := order[k]
		kx := keys[x]
		m := k
		for ; m > 0; m-- {
			y := order[m-1]
			if ky := keys[y]; ky < kx || ky == kx && y < x {
				break
			}
			order[m] = y
		}
		order[m] = x
	}
	cum := 0.0
	for _, i := range order {
		c := d.exec[i]
		if c+base+cum/np >= d.slack[i] {
			return false
		}
		cum += c
	}
	return true
}

// searchCase is one queue, processor state and instant to search γ on.
type searchCase struct {
	now   simtime.Time
	ready []*Job
	state *ProcState
}

// clone copies the case's job records and processor state, so the
// original can be overwritten as the kernel reuses records after a
// queue change.
func (c searchCase) clone() searchCase {
	out := searchCase{now: c.now, ready: make([]*Job, len(c.ready))}
	for i, j := range c.ready {
		cp := *j
		out.ready[i] = &cp
	}
	out.state = &ProcState{NumProcs: c.state.NumProcs, Remaining: append([]simtime.Duration(nil), c.state.Remaining...)}
	return out
}

// scribble overwrites the case's job records and processor state in place.
func (c searchCase) scribble(rng *rand.Rand) {
	for _, j := range c.ready {
		j.AbsDeadline = simtime.Time(rng.Float64())
		j.EstExec = simtime.Duration(rng.Float64())
		j.Task = &dag.Task{Priority: 1 + rng.Intn(23)}
	}
	for p := range c.state.Remaining {
		c.state.Remaining[p] = simtime.Duration(rng.Float64())
	}
}

// nonMonotoneCase is TestGammaInForceIsFeasibleWhenNonMonotone's queue and
// u: Eq. 11 holds at γ = 0 and at 0.02 but fails at u.
func nonMonotoneCase() (searchCase, float64) {
	ready, st, u := feasibilityQueue(1846006709496699026, 0x35, 0xb9)
	return searchCase{ready: ready, state: st}, u
}

// randomCase draws a queue of 0–16 jobs on 1–4 processors. Half the draws
// use keys on a coarse grid, so equal P_i(γ) and candidates whose sort
// moves nothing are frequent; the rest are randomJobs queues, among which
// Eq. 11 is sometimes not monotone in γ.
func randomCase(rng *rand.Rand) searchCase {
	n := rng.Intn(17)
	np := 1 + rng.Intn(4)
	st := &ProcState{NumProcs: np, Remaining: make([]simtime.Duration, np)}
	for p := range st.Remaining {
		if rng.Intn(2) == 0 {
			st.Remaining[p] = simtime.Duration(rng.Intn(8)) / 256
		}
	}
	if rng.Intn(2) == 0 {
		return searchCase{now: simtime.Time(rng.Float64() * 0.01), ready: randomJobs(rng, n, 0), state: st}
	}
	ready := make([]*Job, n)
	for i := range ready {
		ready[i] = &Job{
			Task:        &dag.Task{ID: dag.TaskID(i), Priority: 1 + rng.Intn(4)},
			AbsDeadline: simtime.Time(rng.Intn(32)) / 128,
			EstExec:     simtime.Duration(rng.Intn(8)) / 256,
		}
	}
	return searchCase{ready: ready, state: st}
}

// randomU draws u below 0, inside [0, γcap] (its ends included) or above
// γcap.
func randomU(rng *rand.Rand, gammaCap float64) float64 {
	switch rng.Intn(5) {
	case 0:
		return -rng.Float64() * gammaCap
	case 1:
		return 0
	case 2:
		return gammaCap
	case 3:
		return gammaCap * (1 + rng.Float64())
	default:
		return rng.Float64() * gammaCap
	}
}

// TestOnDemandSearchMatchesEager drives the on-demand search and the eager
// oracle through the same random calls — Recomputes, SetNominalU, feasible
// probes and reads, in any order, with several Recomputes before a read, a
// SetNominalU between a Recompute and its read, and the queue's records
// overwritten once Recompute returns — and requires every read to match in
// float64 bits. Every resolved search must satisfy Eq. 11–12:
// 0 ≤ γ ≤ γmax ≤ γcap, and check(γ) passes unless the queue is overloaded.
func TestOnDemandSearchMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var reads, oneJob, overloaded, probes int
	oracle := &eagerDynamic{}
	for trial := 0; trial < 400; trial++ {
		gammaCap := []float64{DefaultGammaCap, 0.005, 0.5}[rng.Intn(3)]
		d := NewDynamic(gammaCap)
		d.BisectIters = []int{24, 6}[rng.Intn(2)]
		*oracle = eagerDynamic{GammaCap: d.GammaCap, BisectIters: d.BisectIters, rebisected: oracle.rebisected}
		var last searchCase // a copy of the last Recompute's inputs
		for step := 0; step < 24; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				c := randomCase(rng)
				if rng.Intn(8) == 0 {
					var u float64
					c, u = nonMonotoneCase()
					d.SetNominalU(u)
					oracle.nominalU = u
				}
				last = c.clone()
				d.Recompute(c.now, c.ready, c.state)
				oracle.Recompute(c.now, c.ready, c.state)
				c.scribble(rng)
			case op < 6:
				u := randomU(rng, gammaCap)
				d.SetNominalU(u)
				oracle.nominalU = u
			case op < 7:
				c := randomCase(rng)
				g := randomU(rng, gammaCap)
				if got, want := d.feasible(g, c.now, c.ready, c.state), oracle.feasible(g, c.now, c.ready, c.state); got != want {
					t.Fatalf("trial %d step %d: feasible(%v) = %t, eager %t", trial, step, g, got, want)
				}
				probes++
			default:
				reads++
				c := randomCase(rng)
				got := d.Select(c.now, c.ready, 0, c.state)
				want := pickBest(c.ready, nil, func(j *Job) float64 { return oracle.gamma*float64(j.Task.Priority) + float64(j.LatestStart()) })
				if got != want {
					t.Fatalf("trial %d step %d: Select = %d, eager %d", trial, step, got, want)
				}
				g, gm, ov := d.Gamma(), d.GammaMax(), d.Overloaded()
				if math.Float64bits(g) != math.Float64bits(oracle.gamma) ||
					math.Float64bits(gm) != math.Float64bits(oracle.gammaMax) || ov != oracle.overloaded {
					t.Fatalf("trial %d step %d: γ=%v γmax=%v overloaded=%t, eager γ=%v γmax=%v overloaded=%t",
						trial, step, g, gm, ov, oracle.gamma, oracle.gammaMax, oracle.overloaded)
				}
				if last.state == nil {
					continue // no Recompute yet
				}
				if !(0 <= g && g <= gm && gm <= d.GammaCap) {
					t.Fatalf("trial %d step %d: Eq. 12 violated: γ=%v γmax=%v γcap=%v", trial, step, g, gm, d.GammaCap)
				}
				if ov {
					overloaded++
				} else if !(&eagerDynamic{}).feasible(g, last.now, last.ready, last.state) {
					t.Fatalf("trial %d step %d: γ=%v in force fails Eq. 11 on %d jobs", trial, step, g, len(last.ready))
				}
				if len(last.ready) == 1 {
					oneJob++
				}
			}
		}
	}
	t.Logf("%d reads (%d one-job, %d overloaded), %d probes, %d re-bisected searches", reads, oneJob, overloaded, probes, oracle.rebisected)
	if oneJob == 0 || overloaded == 0 || probes == 0 || oracle.rebisected == 0 {
		t.Fatalf("coverage: %d one-job reads, %d overloaded reads, %d probes, %d re-bisected searches; want each > 0",
			oneJob, overloaded, probes, oracle.rebisected)
	}
}

// TestSearchRunsOnceAtFirstRead shows where the search runs: a Recompute
// that nothing reads runs no check, and two reads run the search once.
// Only check writes the key scratch, so a sentinel left in it survives
// exactly when no check ran.
func TestSearchRunsOnceAtFirstRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jobs := randomJobs(rng, 8, 0)
	st := &ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	d := NewDynamic(0.02)
	d.SetNominalU(0.01)
	sentinel := func() {
		for i := range d.keys {
			d.keys[i] = math.NaN()
		}
	}
	untouched := func() bool {
		for _, k := range d.keys {
			if !math.IsNaN(k) {
				return false
			}
		}
		return true
	}
	d.Recompute(0, jobs, st)
	sentinel()
	d.Recompute(0, jobs, st)
	if !untouched() {
		t.Fatal("Recompute ran a check")
	}
	first := d.Gamma()
	if untouched() {
		t.Fatal("the first read ran no check")
	}
	sentinel()
	if d.Gamma() != first || d.Select(0, jobs, 0, st) < 0 {
		t.Fatal("a second read changed γ or selected nothing")
	}
	if !untouched() {
		t.Fatal("a second read ran the search again")
	}
}

// TestRecomputeAndReadSteadyStateAllocs pins that a Recompute followed by
// the search at its read allocates nothing once the buffers are sized.
func TestRecomputeAndReadSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jobs := randomJobs(rng, 32, 0)
	st := &ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	d := NewDynamic(0.02)
	d.SetNominalU(0.01)
	d.Recompute(0, jobs, st)
	allocs := testing.AllocsPerRun(100, func() {
		d.Recompute(0, jobs, st)
		_ = d.Gamma()
	})
	if allocs != 0 {
		t.Errorf("steady-state Recompute and read allocate %v objects/op, want 0", allocs)
	}
}
