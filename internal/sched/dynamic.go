package sched

import (
	"fmt"
	"sort"

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
// u(t): Recompute finds the largest γmax for which every queued job remains
// schedulable under the Eq. 11 load constraints, then clamps u into
// [0, γmax] (Eq. 12). When even γ = 0 is infeasible the system is
// overloaded; γ is forced to 0 and the Overloaded flag is raised for the
// external coordinator.
//
// Recompute is the scheduler's hot path — the kernel invokes it on every
// ready-queue change, and each invocation evaluates the Eq. 11 constraint
// set at up to 2+BisectIters candidate γ values. All per-job quantities the
// constraints need (p_i, d_i, c_i, deadline slack) are therefore captured
// once per Recompute into scratch buffers reused across calls, and each
// candidate γ only sorts an index permutation; steady-state Recompute
// allocates nothing.
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

	// Scratch state captured from the ready queue by the last Recompute
	// (or direct feasible probe). Slices are reused across calls.
	jobs   []*Job    // queue snapshot, in arrival order
	prio   []float64 // p_i
	latest []float64 // d_i: latest feasible start, absolute
	exec   []float64 // c_i
	slack  []float64 // deadline_i − now
	keys   []float64 // P_i(γ) for the candidate γ under test
	order  []int     // index permutation sorted by keys
	sorter *keySorter

	// Dispatch-order heap keyed on P_i under the γ in force, rebuilt
	// lazily and only when γ (or the captured queue) changes.
	heap      jobHeap
	heapOrder []*Job
	heapDirty bool
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
func (d *Dynamic) Gamma() float64 { return d.gamma }

// GammaMax returns the schedulability bound found by the last Recompute.
func (d *Dynamic) GammaMax() float64 { return d.gammaMax }

// Overloaded reports whether the last Recompute found no feasible γ
// (Eq. 11 unsatisfiable even at γ = 0). The external coordinator uses this
// to shed load.
func (d *Dynamic) Overloaded() bool { return d.overloaded }

// capture snapshots the per-job constraint inputs into the scratch buffers.
func (d *Dynamic) capture(now simtime.Time, ready []*Job) {
	n := len(ready)
	if cap(d.prio) < n {
		d.jobs = make([]*Job, n)
		d.prio = make([]float64, n)
		d.latest = make([]float64, n)
		d.exec = make([]float64, n)
		d.slack = make([]float64, n)
		d.keys = make([]float64, n)
		d.order = make([]int, n)
	}
	d.jobs = d.jobs[:n]
	d.prio = d.prio[:n]
	d.latest = d.latest[:n]
	d.exec = d.exec[:n]
	d.slack = d.slack[:n]
	d.keys = d.keys[:n]
	d.order = d.order[:n]
	for i, j := range ready {
		d.jobs[i] = j
		d.prio[i] = float64(j.Task.Priority)
		d.latest[i] = float64(j.LatestStart())
		d.exec[i] = float64(j.EstExec)
		d.slack[i] = float64(j.AbsDeadline - now)
	}
	d.heapDirty = true
}

// Recompute re-derives γmax from the current ready queue and processor
// state, then maps the nominal u into γ per Eq. 12. Call it when the ready
// queue changes materially or when the controller publishes a new u.
//
// Feasibility is not perfectly monotone in γ (the constraint set depends on
// the induced ordering), but it is monotone for the workloads in the paper's
// regime — tight deadlines favour small γ — so a bisection over [0,
// GammaCap] finds γmax to within GammaCap·2^-BisectIters. Where it is not,
// a clamped γ strictly inside (0, γmax) can fail Eq. 11 although both ends
// pass; Recompute then bisects [0, γ] and lowers γmax and γ to its feasible
// end, so Eq. 12 still holds and the γ in force always satisfies Eq. 11.
func (d *Dynamic) Recompute(now simtime.Time, ready []*Job, state *ProcState) {
	d.capture(now, ready)
	np := float64(state.NumProcs)
	base := 0.0
	if np > 0 {
		base = float64(state.TotalRemaining()) / np
	}
	switch {
	case len(ready) == 0:
		// Empty queue: every γ is trivially feasible.
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
		d.gammaMax = d.bisect(d.gamma, np, base)
		d.gamma = d.gammaMax
	}
	d.heapDirty = true
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
// external probes can call it directly. Recompute captures once and probes
// many γ values via check.
func (d *Dynamic) feasible(gamma float64, now simtime.Time, ready []*Job, state *ProcState) bool {
	np := float64(state.NumProcs)
	if np <= 0 {
		return false
	}
	d.capture(now, ready)
	return d.check(gamma, np, float64(state.TotalRemaining())/np)
}

// check evaluates the Eq. 11 constraint set for a candidate γ over the
// captured queue: with jobs served in P_i(γ) order on n_p processors, every
// job k must satisfy
//
//	c_k + ΣT_p/n_p + Σ_{P_i<P_k} c_i/n_p  <  deadline_k − now.
//
// The sort permutes an index scratch slice (stable, so ties keep arrival
// order exactly as a stable sort of the queue itself would); no per-call
// allocation.
func (d *Dynamic) check(gamma, np, base float64) bool {
	if np <= 0 {
		return false
	}
	keys, order := d.keys, d.order
	for i := range order {
		order[i] = i
		keys[i] = gamma*d.prio[i] + d.latest[i]
	}
	if d.sorter == nil {
		d.sorter = &keySorter{}
	}
	d.sorter.keys, d.sorter.order = keys, order
	// sort.Stable on a concrete sort.Interface: stable, like the previous
	// sort.SliceStable of the queue copy (so ties keep arrival order), but
	// without the closure and interface-conversion allocations per call.
	sort.Stable(d.sorter)
	cum := 0.0
	for _, i := range order {
		c := d.exec[i]
		need := c + base + cum/np
		if need >= d.slack[i] {
			return false
		}
		cum += c
	}
	return true
}

// keySorter stably sorts an index permutation by its key values. A concrete
// sort.Interface (instead of sort.SliceStable's closure) keeps the per-call
// allocation count at zero.
type keySorter struct {
	keys  []float64
	order []int
}

func (s *keySorter) Len() int           { return len(s.order) }
func (s *keySorter) Less(a, b int) bool { return s.keys[s.order[a]] < s.keys[s.order[b]] }
func (s *keySorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// priorityOf evaluates Eq. 10 for one job. Smaller is dispatched first.
func (d *Dynamic) priorityOf(j *Job, gamma float64) float64 {
	return gamma*float64(j.Task.Priority) + float64(j.LatestStart())
}

// Select implements Scheduler: the queued job with the smallest dynamic
// priority P_i under the γ currently in force. Select is a pure function of
// its inputs (the Scheduler contract), so it scans rather than consuming
// the dispatch heap; use DispatchOrder for the full ranking.
func (d *Dynamic) Select(_ simtime.Time, ready []*Job, _ int, _ *ProcState) int {
	return pickBest(ready, nil, func(j *Job) float64 { return d.priorityOf(j, d.gamma) })
}

// DispatchOrder returns the ready queue captured by the last Recompute in
// dispatch order under the γ in force: ascending P_i = γ·p_i + d_i with
// Select's deterministic tie-breaks (earlier release, then lower task ID,
// then arrival order). The ranking comes from a binary heap keyed on P_i
// that is rebuilt lazily — only after γ or the queue changed — and reuses
// its storage, so steady-state calls allocate nothing.
//
// The returned slice is owned by the scheduler and overwritten by the next
// rebuild; copy it if it must outlive the next Recompute. Diagnostic
// consumers (traces, tests, the serve layer) use it to see the whole
// queue's ranking rather than just Select's single winner.
func (d *Dynamic) DispatchOrder() []*Job {
	if d.heapDirty {
		d.heapOrder = d.heap.rank(d.jobs, d.keysInForce, d.heapOrder)
		d.heapDirty = false
	}
	return d.heapOrder
}

// keysInForce fills keys[i] with P_i under the γ currently in force for the
// captured queue snapshot.
func (d *Dynamic) keysInForce(keys []float64) {
	for i := range d.jobs {
		keys[i] = d.gamma*d.prio[i] + d.latest[i]
	}
}

// String summarises the scheduler state for traces.
func (d *Dynamic) String() string {
	return fmt.Sprintf("Dynamic{u=%.4g γ=%.4g γmax=%.4g overloaded=%t}",
		d.nominalU, d.gamma, d.gammaMax, d.overloaded)
}
