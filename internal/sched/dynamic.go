package sched

import (
	"fmt"

	"hcperf/internal/simtime"
)

// Dynamic is HCPerf's Dynamic Priority Scheduler (paper §V). Jobs are
// dispatched by the dynamic scheduling priority
//
//	P_i = γ·p_i + d_i            (Eq. 10)
//
// where p_i is the static priority, d_i is the job's latest feasible start
// time (the absolute form of the scheduling deadline D_i − c_i, Eq. 9) and
// γ ≥ 0 balances deadline-driven against priority-driven dispatch: γ = 0
// degenerates to least-slack (EDF-like) scheduling, large γ approaches
// static-priority scheduling.
//
// γ is derived from the Performance Directed Controller's nominal signal
// u(t): the γ search finds the largest γmax for which every queued job
// remains schedulable under the Eq. 11 load constraints, then clamps u into
// [0, γmax] (Eq. 12). When even γ = 0 is infeasible the system is
// overloaded; γ is forced to 0 and the Overloaded flag is raised for the
// external coordinator.
//
// The kernel calls Recompute on every ready-queue change, and a search
// evaluates the Eq. 11 constraint set at up to 2+BisectIters candidate γ
// values. Recompute therefore only captures the search's inputs: the
// per-job quantities (p_i, d_i, c_i, deadline slack) into scratch buffers
// reused across calls, and n_p, ΣT_p/n_p and u. The search runs at the
// first read of γ after it (Select, Gamma, GammaMax, Overloaded, String),
// so a search that the next queue change overwrites unread never runs. Its
// outcome is a function of the captured inputs alone, so it is the one an
// eager search at Recompute would find, bit for bit. Each candidate γ only
// re-sorts an index permutation, starting from the order the previous
// candidate left; steady-state Recompute and search allocate nothing.
type Dynamic struct {
	// GammaCap bounds the γ search bracket (constraint 1b, γ^max).
	GammaCap float64
	// BisectIters is the number of bisection refinements when searching
	// γmax; the default (24) resolves γ to GammaCap·2^-24.
	BisectIters int

	nominalU   float64
	gamma      float64
	gammaMax   float64
	overloaded bool

	// The inputs of the search the last Recompute asked for, which runs
	// at the next read of γ while stale is set.
	stale bool
	u     float64 // nominal u
	np    float64 // n_p
	base  float64 // ΣT_p/n_p

	// Scratch state captured from the ready queue by the last Recompute
	// (or direct feasible probe). Slices are reused across calls.
	prio   []float64 // p_i
	latest []float64 // d_i: latest feasible start, absolute
	exec   []float64 // c_i
	slack  []float64 // deadline_i − now
	keys   []float64 // P_i(γ) for the candidate γ under test
	order  []int     // index permutation sorted by (keys, index)
	// checked marks that order has been checked since the last capture,
	// with outcome lastOK.
	checked, lastOK bool
}

// DefaultGammaCap spans enough γ range that γ·Δp can dominate the largest
// deadline spreads (tens of milliseconds across ~23 priority levels).
const DefaultGammaCap = 0.02

// NewDynamic returns a Dynamic scheduler with the given γ cap; cap <= 0
// selects DefaultGammaCap.
func NewDynamic(gammaCap float64) *Dynamic {
	if gammaCap <= 0 {
		gammaCap = DefaultGammaCap
	}
	return &Dynamic{GammaCap: gammaCap, BisectIters: 24}
}

// Name implements Scheduler.
func (d *Dynamic) Name() string { return "HCPerf" }

// SetNominalU installs the Performance Directed Controller output u(t).
// It takes effect at the next Recompute.
func (d *Dynamic) SetNominalU(u float64) { d.nominalU = u }

// NominalU returns the currently installed controller signal.
func (d *Dynamic) NominalU() float64 { return d.nominalU }

// Gamma returns the actual priority-adjustment coefficient in force.
func (d *Dynamic) Gamma() float64 {
	d.resolve()
	return d.gamma
}

// GammaMax returns the schedulability bound found for the last Recompute.
func (d *Dynamic) GammaMax() float64 {
	d.resolve()
	return d.gammaMax
}

// Overloaded reports whether the last Recompute's queue has no feasible γ
// (Eq. 11 unsatisfiable even at γ = 0). The external coordinator uses this
// to shed load.
func (d *Dynamic) Overloaded() bool {
	d.resolve()
	return d.overloaded
}

// capture snapshots the per-job constraint inputs into the scratch buffers.
func (d *Dynamic) capture(now simtime.Time, ready []*Job) {
	n := len(ready)
	if cap(d.prio) < n {
		d.prio = make([]float64, n)
		d.latest = make([]float64, n)
		d.exec = make([]float64, n)
		d.slack = make([]float64, n)
		d.keys = make([]float64, n)
		d.order = make([]int, n)
	}
	d.prio = d.prio[:n]
	d.latest = d.latest[:n]
	d.exec = d.exec[:n]
	d.slack = d.slack[:n]
	d.keys = d.keys[:n]
	d.order = d.order[:n]
	for i, j := range ready {
		d.prio[i] = float64(j.Task.Priority)
		d.latest[i] = float64(j.LatestStart())
		d.exec[i] = float64(j.EstExec)
		d.slack[i] = float64(j.AbsDeadline - now)
		d.order[i] = i
	}
	d.checked = false
}

// Recompute asks for γmax to be re-derived from the ready queue and
// processor state, and the nominal u installed now to be mapped into γ per
// Eq. 12. Call it when the ready queue changes materially or when the
// controller publishes a new u. It captures the search's inputs, so the
// queue's job records may be reused once it returns; the search itself runs
// at the next read of γ.
func (d *Dynamic) Recompute(now simtime.Time, ready []*Job, state *ProcState) {
	d.capture(now, ready)
	d.np = float64(state.NumProcs)
	d.base = 0
	if d.np > 0 {
		d.base = float64(state.TotalRemaining()) / d.np
	}
	d.u = d.nominalU
	d.stale = true
}

// resolve runs the γ search the last Recompute asked for, if it has not
// run yet.
//
// Feasibility is not perfectly monotone in γ (the constraint set depends on
// the induced ordering), but it is monotone for the workloads in the paper's
// regime — tight deadlines favour small γ — so a bisection over [0,
// GammaCap] finds γmax to within GammaCap·2^-BisectIters. Where it is not,
// a clamped γ strictly inside (0, γmax) can fail Eq. 11 although both ends
// pass; resolve then bisects [0, γ] and lowers γmax and γ to its feasible
// end, so Eq. 12 still holds and the γ in force always satisfies Eq. 11.
//
// The order of a one-job queue cannot depend on γ, so there check(γ) is
// check(0) for every γ, and neither the GammaCap probe nor the re-check of
// the clamped γ runs.
func (d *Dynamic) resolve() {
	if !d.stale {
		return
	}
	d.stale = false
	n, np, base := len(d.prio), d.np, d.base
	switch {
	case n == 0:
		// Empty queue: every γ is trivially feasible.
		d.gammaMax = d.GammaCap
		d.overloaded = false
	case !d.check(0, np, base):
		d.gammaMax = 0
		d.overloaded = true
	case n == 1 || d.check(d.GammaCap, np, base):
		d.gammaMax = d.GammaCap
		d.overloaded = false
	default:
		d.gammaMax = d.bisect(d.GammaCap, np, base)
		d.overloaded = false
	}
	d.gamma = clampGamma(d.u, d.gammaMax)
	if n > 1 && d.gamma > 0 && d.gamma < d.gammaMax && !d.check(d.gamma, np, base) {
		d.gammaMax = d.bisect(d.gamma, np, base)
		d.gamma = d.gammaMax
	}
}

// bisect narrows [0, hi], where γ = 0 passes check and hi fails it, to its
// feasible end.
func (d *Dynamic) bisect(hi, np, base float64) float64 {
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

// clampGamma maps the nominal u to the actual γ per Eq. 12.
func clampGamma(u, gammaMax float64) float64 {
	switch {
	case u < 0:
		return 0
	case u > gammaMax:
		return gammaMax
	default:
		return u
	}
}

// feasible checks the Eq. 11 constraint set for a candidate γ against an
// arbitrary queue snapshot; it re-captures the scratch state, so tests and
// external probes can call it directly. It first runs any search still
// pending on the scratch state it overwrites. A search captures once and
// probes many γ values via check.
func (d *Dynamic) feasible(gamma float64, now simtime.Time, ready []*Job, state *ProcState) bool {
	np := float64(state.NumProcs)
	if np <= 0 {
		return false
	}
	d.resolve()
	d.capture(now, ready)
	return d.check(gamma, np, float64(state.TotalRemaining())/np)
}

// check evaluates the Eq. 11 constraint set for a candidate γ over the
// captured queue: with jobs served in P_i(γ) order on n_p processors, every
// job k must satisfy
//
//	c_k + ΣT_p/n_p + Σ_{P_i<P_k} c_i/n_p  <  deadline_k − now.
//
// The order is an index scratch slice sorted by (key, index). That is a
// total order, since no key is NaN, so ties keep arrival order exactly as
// a stable sort of the queue itself would. An insertion sort puts it in
// order starting from the order the previous check left, which the next
// candidate γ mostly keeps; capture resets it to arrival order. When the
// sort moves nothing, the order is the previous check's, and so is the
// outcome. No per-call allocation.
func (d *Dynamic) check(gamma, np, base float64) bool {
	if np <= 0 {
		return false
	}
	keys, order := d.keys, d.order
	for i := range keys {
		keys[i] = gamma*d.prio[i] + d.latest[i]
	}
	moved := false
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
		if m != k {
			order[m] = x
			moved = true
		}
	}
	if d.checked && !moved {
		return d.lastOK
	}
	ok := true
	cum := 0.0
	for _, i := range order {
		c := d.exec[i]
		need := c + base + cum/np
		if need >= d.slack[i] {
			ok = false
			break
		}
		cum += c
	}
	d.checked, d.lastOK = true, ok
	return ok
}

// priorityOf evaluates Eq. 10 for one job. Smaller is dispatched first.
func (d *Dynamic) priorityOf(j *Job, gamma float64) float64 {
	return gamma*float64(j.Task.Priority) + float64(j.LatestStart())
}

// Select implements Scheduler: the queued job with the smallest dynamic
// priority P_i under the γ currently in force.
func (d *Dynamic) Select(_ simtime.Time, ready []*Job, _ int, _ *ProcState) int {
	d.resolve()
	return pickBest(ready, nil, func(j *Job) float64 { return d.priorityOf(j, d.gamma) })
}

// String summarises the scheduler state for traces.
func (d *Dynamic) String() string {
	d.resolve()
	return fmt.Sprintf("Dynamic{u=%.4g γ=%.4g γmax=%.4g overloaded=%t}",
		d.nominalU, d.gamma, d.gammaMax, d.overloaded)
}
