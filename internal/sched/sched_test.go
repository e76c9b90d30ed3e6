package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/simtime"
)

const ms = simtime.Millisecond

// job builds a ready job directly, bypassing the engine.
func job(id dag.TaskID, prio int, release, relDeadline, estExec simtime.Duration, opts ...func(*Job)) *Job {
	t := &dag.Task{
		ID:          id,
		Name:        "t" + string(rune('0'+id)),
		Priority:    prio,
		RelDeadline: relDeadline,
		Exec:        exectime.Constant(estExec),
		Criticality: dag.LowCriticality,
		Processor:   -1,
	}
	j := &Job{
		Task:        t,
		Release:     release,
		AbsDeadline: release + relDeadline,
		EstExec:     estExec,
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

func highCrit(j *Job) { j.Task.Criticality = dag.HighCriticality }

func boundTo(label int) func(*Job) {
	return func(j *Job) { j.Task.Processor = label }
}

func state(nprocs int, remaining ...simtime.Duration) *ProcState {
	rem := make([]simtime.Duration, nprocs)
	copy(rem, remaining)
	return &ProcState{NumProcs: nprocs, Remaining: rem}
}

func TestJobDerivedTimes(t *testing.T) {
	j := job(0, 3, 10, 50*ms, 10*ms)
	if got := j.LatestStart(); math.Abs(float64(got-(10+40*ms))) > 1e-12 {
		t.Errorf("LatestStart = %v, want %v", got, simtime.Time(10+40*ms))
	}
	if got := j.Slack(10); math.Abs(float64(got-40*ms)) > 1e-12 {
		t.Errorf("Slack = %v, want 40ms", got)
	}
}

func TestProcStateTotalRemaining(t *testing.T) {
	s := state(3, 5*ms, 0, 7*ms)
	if got := s.TotalRemaining(); got != 12*ms {
		t.Errorf("TotalRemaining = %v, want 12ms", got)
	}
}

func TestHPF(t *testing.T) {
	ready := []*Job{
		job(0, 5, 0, 100*ms, 10*ms),
		job(1, 2, 0, 100*ms, 10*ms),
		job(2, 7, 0, 100*ms, 10*ms),
	}
	if got := (HPF{}).Select(0, ready, 0, state(1)); got != 1 {
		t.Errorf("HPF picked index %d, want 1 (priority 2)", got)
	}
	if got := (HPF{}).Select(0, nil, 0, state(1)); got != -1 {
		t.Errorf("HPF on empty queue = %d, want -1", got)
	}
}

func TestHPFTieBreaksByRelease(t *testing.T) {
	ready := []*Job{
		job(0, 2, 5, 100*ms, 10*ms),
		job(1, 2, 1, 100*ms, 10*ms),
	}
	if got := (HPF{}).Select(5, ready, 0, state(1)); got != 1 {
		t.Errorf("HPF tie-break picked %d, want 1 (earlier release)", got)
	}
}

func TestEDF(t *testing.T) {
	ready := []*Job{
		job(0, 1, 0, 100*ms, 10*ms), // deadline 100ms, highest static prio
		job(1, 9, 0, 40*ms, 10*ms),  // deadline 40ms
		job(2, 5, 0, 70*ms, 10*ms),
	}
	if got := (EDF{}).Select(0, ready, 0, state(1)); got != 1 {
		t.Errorf("EDF picked index %d, want 1 (earliest deadline)", got)
	}
}

func TestEDFVD(t *testing.T) {
	// Low-crit deadline 50ms vs high-crit deadline 80ms: plain EDF would
	// pick the low-crit job; with X=0.5 the high-crit virtual deadline is
	// 40ms and wins.
	ready := []*Job{
		job(0, 5, 0, 50*ms, 10*ms),
		job(1, 5, 0, 80*ms, 10*ms, highCrit),
	}
	if got := NewEDFVD(0.5).Select(0, ready, 0, state(1)); got != 1 {
		t.Errorf("EDF-VD picked %d, want 1 (virtual deadline)", got)
	}
	// Degenerate X behaves as plain EDF.
	for _, x := range []float64{0, -1, 2} {
		if got := NewEDFVD(x).Select(0, ready, 0, state(1)); got != 0 {
			t.Errorf("EDF-VD X=%v picked %d, want 0 (plain EDF)", x, got)
		}
	}
}

func TestApolloBinding(t *testing.T) {
	ready := []*Job{
		job(0, 1, 0, 100*ms, 10*ms, boundTo(1)), // block-maps to proc 0
		job(1, 2, 0, 100*ms, 10*ms, boundTo(3)), // block-maps to proc 1
		job(2, 3, 0, 100*ms, 10*ms),             // unbound
	}
	st := state(2)
	if got := (Apollo{}).Select(0, ready, 0, st); got != 0 {
		t.Errorf("Apollo proc0 picked %d, want 0", got)
	}
	if got := (Apollo{}).Select(0, ready, 1, st); got != 1 {
		t.Errorf("Apollo proc1 picked %d, want 1", got)
	}
	// Only the unbound job is eligible on proc 1 when the bound one is
	// removed.
	ready2 := []*Job{ready[0], ready[2]}
	if got := (Apollo{}).Select(0, ready2, 1, st); got != 1 {
		t.Errorf("Apollo proc1 picked %d, want 1 (unbound job)", got)
	}
	// No eligible job => idle.
	ready3 := []*Job{ready[0]}
	if got := (Apollo{}).Select(0, ready3, 1, st); got != -1 {
		t.Errorf("Apollo proc1 with only proc0-bound job = %d, want -1", got)
	}
}

func TestApolloBindingWraps(t *testing.T) {
	// Label 5 in a 4-label space wraps to label 1 -> processor 0.
	ready := []*Job{job(0, 1, 0, 100*ms, 10*ms, boundTo(5))}
	if got := (Apollo{}).Select(0, ready, 0, state(4)); got != 0 {
		t.Errorf("Apollo wrap binding picked %d, want 0", got)
	}
}

func TestApolloBlockMapping(t *testing.T) {
	// With 2 processors and 4 labels, labels 1-2 run on processor 0 and
	// labels 3-4 on processor 1 (perception node / planning node).
	tests := []struct {
		label, proc int
	}{
		{label: 1, proc: 0},
		{label: 2, proc: 0},
		{label: 3, proc: 1},
		{label: 4, proc: 1},
	}
	for _, tt := range tests {
		ready := []*Job{job(0, 1, 0, 100*ms, 10*ms, boundTo(tt.label))}
		st := state(2)
		if got := (Apollo{}).Select(0, ready, tt.proc, st); got != 0 {
			t.Errorf("label %d not eligible on proc %d", tt.label, tt.proc)
		}
		other := 1 - tt.proc
		if got := (Apollo{}).Select(0, ready, other, st); got != -1 {
			t.Errorf("label %d unexpectedly eligible on proc %d", tt.label, other)
		}
	}
}

func TestDynamicGammaZeroIsLeastSlack(t *testing.T) {
	d := NewDynamic(0.02)
	// γ = 0 by default (no Recompute, nominal u = 0).
	ready := []*Job{
		job(0, 1, 0, 100*ms, 5*ms), // latest start 95ms
		job(1, 9, 0, 30*ms, 20*ms), // latest start 10ms  <- most urgent
		job(2, 5, 0, 60*ms, 10*ms), // latest start 50ms
	}
	if got := d.Select(0, ready, 0, state(2)); got != 1 {
		t.Errorf("Dynamic γ=0 picked %d, want 1 (least slack)", got)
	}
}

func TestDynamicLargeGammaIsPriorityFirst(t *testing.T) {
	d := NewDynamic(10)
	d.SetNominalU(10)
	ready := []*Job{
		job(0, 1, 0, 1000*ms, 5*ms), // highest static priority, loose deadline
		job(1, 9, 0, 30*ms, 20*ms),  // urgent but low priority
	}
	// Light load: γmax should reach the cap, γ = u = 10, and γ·Δp = 80
	// dwarfs the sub-second deadline spread... but the 30ms deadline job
	// must still be schedulable for γmax to stay at cap. Use a state with
	// idle processors.
	d.Recompute(0, ready, state(2))
	if d.Overloaded() {
		t.Fatal("unexpected overload")
	}
	if got := d.Select(0, ready, 0, state(2)); got != 0 {
		t.Errorf("Dynamic large γ picked %d, want 0 (static priority)", got)
	}
}

func TestDynamicRecomputeEmptyQueue(t *testing.T) {
	d := NewDynamic(0.02)
	d.SetNominalU(0.5)
	d.Recompute(0, nil, state(2))
	if d.Overloaded() {
		t.Error("empty queue flagged overloaded")
	}
	if d.GammaMax() != 0.02 {
		t.Errorf("γmax = %v, want cap 0.02", d.GammaMax())
	}
	if d.Gamma() != 0.02 {
		t.Errorf("γ = %v, want clamp(0.5)=cap", d.Gamma())
	}
}

func TestDynamicOverload(t *testing.T) {
	d := NewDynamic(0.02)
	d.SetNominalU(0.01)
	// Execution time exceeds the deadline: infeasible at any γ.
	ready := []*Job{job(0, 1, 0, 10*ms, 50*ms)}
	d.Recompute(0, ready, state(1))
	if !d.Overloaded() {
		t.Error("overload not detected")
	}
	if d.Gamma() != 0 {
		t.Errorf("γ = %v under overload, want 0", d.Gamma())
	}
}

func TestDynamicGammaClamp(t *testing.T) {
	tests := []struct {
		name string
		u    float64
		max  float64
		want float64
	}{
		{name: "negative u", u: -1, max: 0.5, want: 0},
		{name: "inside", u: 0.3, max: 0.5, want: 0.3},
		{name: "above max", u: 0.9, max: 0.5, want: 0.5},
		{name: "zero max", u: 0.9, max: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := clampGamma(tt.u, tt.max); got != tt.want {
				t.Errorf("clampGamma(%v,%v) = %v, want %v", tt.u, tt.max, got, tt.want)
			}
		})
	}
}

func TestDynamicGammaMaxShrinksUnderPressure(t *testing.T) {
	d := NewDynamic(0.02)
	light := []*Job{
		job(0, 1, 0, 500*ms, 5*ms),
		job(1, 9, 0, 500*ms, 5*ms),
	}
	d.Recompute(0, light, state(2))
	lightMax := d.GammaMax()

	// Tight deadlines force deadline-driven dispatch: γmax must shrink.
	tight := []*Job{
		job(0, 1, 0, 500*ms, 5*ms),
		job(1, 9, 0, 12*ms, 5*ms),
		job(2, 8, 0, 18*ms, 5*ms),
		job(3, 7, 0, 24*ms, 5*ms),
	}
	d.Recompute(0, tight, state(1))
	tightMax := d.GammaMax()
	if d.Overloaded() {
		t.Fatal("tight queue unexpectedly overloaded")
	}
	if tightMax >= lightMax {
		t.Errorf("γmax did not shrink under pressure: light %v, tight %v", lightMax, tightMax)
	}
}

func TestDynamicBusyProcessorsCountAgainstFeasibility(t *testing.T) {
	d := NewDynamic(0.02)
	ready := []*Job{job(0, 1, 0, 20*ms, 10*ms)}
	d.Recompute(0, ready, state(1, 0))
	if d.Overloaded() {
		t.Fatal("idle processor should be feasible")
	}
	// Same queue, but the single processor is busy for 15ms: 10+15 > 20.
	d.Recompute(0, ready, state(1, 15*ms))
	if !d.Overloaded() {
		t.Error("busy processor not counted against feasibility")
	}
}

func TestDynamicDefaults(t *testing.T) {
	d := NewDynamic(0)
	if d.GammaCap != DefaultGammaCap {
		t.Errorf("GammaCap = %v, want default", d.GammaCap)
	}
	if d.Name() != "HCPerf" {
		t.Errorf("Name = %q", d.Name())
	}
	d.SetNominalU(0.01)
	if d.NominalU() != 0.01 {
		t.Errorf("NominalU = %v", d.NominalU())
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

// Property: every policy returns either -1 or a valid index, and HPF/EDF
// return a job minimal under their key.
func TestQuickPoliciesSelectValidAndMinimal(t *testing.T) {
	policies := []Scheduler{HPF{}, EDF{}, NewEDFVD(0.7), Apollo{}, NewDynamic(0.02)}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		ready := make([]*Job, count)
		for i := range ready {
			opts := []func(*Job){}
			if rng.Intn(2) == 0 {
				opts = append(opts, boundTo(rng.Intn(4)+1))
			}
			if rng.Intn(3) == 0 {
				opts = append(opts, highCrit)
			}
			ready[i] = job(dag.TaskID(i), rng.Intn(23)+1,
				simtime.Duration(rng.Float64()),
				simtime.Duration(rng.Float64()*0.2+0.001),
				simtime.Duration(rng.Float64()*0.05+0.001), opts...)
		}
		st := state(4)
		now := simtime.Time(1.5)
		for _, p := range policies {
			idx := p.Select(now, ready, rng.Intn(4), st)
			if idx < -1 || idx >= count {
				return false
			}
		}
		// Minimality for HPF and EDF.
		if idx := (HPF{}).Select(now, ready, 0, st); idx >= 0 {
			for _, j := range ready {
				if j.Task.Priority < ready[idx].Task.Priority {
					return false
				}
			}
		}
		if idx := (EDF{}).Select(now, ready, 0, st); idx >= 0 {
			for _, j := range ready {
				if j.AbsDeadline < ready[idx].AbsDeadline {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: γ returned by Recompute is always in [0, GammaCap] and equals
// clamp(u, 0, γmax).
func TestQuickGammaWithinBounds(t *testing.T) {
	f := func(seed int64, uRaw int16, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDynamic(0.02)
		u := float64(uRaw) / 1000
		d.SetNominalU(u)
		count := int(n % 15)
		ready := make([]*Job, count)
		for i := range ready {
			ready[i] = job(dag.TaskID(i), rng.Intn(23)+1,
				0,
				simtime.Duration(rng.Float64()*0.2+0.001),
				simtime.Duration(rng.Float64()*0.05+0.001))
		}
		d.Recompute(0, ready, state(2))
		g := d.Gamma()
		if g < 0 || g > d.GammaCap+1e-12 {
			return false
		}
		return g == clampGamma(u, d.GammaMax())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Eq. 11 soundness): whenever Recompute reports a feasible γ,
// serving the queue greedily in P_i(γ) order on the n_p processors using
// the estimated execution times meets every job's deadline.
func TestQuickGammaFeasibilityIsSound(t *testing.T) {
	f := func(seed int64, n uint8, uRaw uint8) bool {
		return gammaFeasibilityIsSound(t, seed, n, uRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGammaInForceIsFeasibleWhenNonMonotone pins a queue on which Eq. 11
// feasibility is not monotone in γ: γ = 0 and γ = GammaCap pass, but the
// controller's u ≈ 0.0145 fails, and in that γ's P_i order job 2 finishes
// at 0.093 s against its 0.089 s deadline. The γ in force must not be u.
func TestGammaInForceIsFeasibleWhenNonMonotone(t *testing.T) {
	const seed, n, uRaw = 1846006709496699026, 0x35, 0xb9
	ready, st, u := feasibilityQueue(seed, n, uRaw)
	d := NewDynamic(0.02)
	if st.NumProcs != 1 || !d.feasible(0, 0, ready, st) || !d.feasible(d.GammaCap, 0, ready, st) || d.feasible(u, 0, ready, st) {
		t.Fatalf("pinned queue no longer non-monotone at np=%d, u=%v", st.NumProcs, u)
	}
	if !gammaFeasibilityIsSound(t, seed, n, uRaw) {
		t.Fatal("the γ in force misses a deadline")
	}
	d.SetNominalU(u)
	d.Recompute(0, ready, st)
	if g := d.Gamma(); g != d.GammaMax() || g >= u || !d.feasible(g, 0, ready, st) {
		t.Errorf("γ=%v γmax=%v for u=%v, want γ = γmax < u and feasible", g, d.GammaMax(), u)
	}
}

// feasibilityQueue builds the random ready queue, processor state and
// controller signal of one TestQuickGammaFeasibilityIsSound input.
func feasibilityQueue(seed int64, n, uRaw uint8) ([]*Job, *ProcState, float64) {
	rng := rand.New(rand.NewSource(seed))
	count := int(n%12) + 1
	ready := make([]*Job, count)
	for i := range ready {
		ready[i] = job(dag.TaskID(i), rng.Intn(23)+1,
			0,
			simtime.Duration(rng.Float64()*0.15+0.005),
			simtime.Duration(rng.Float64()*0.03+0.001))
	}
	np := rng.Intn(2) + 1
	return ready, state(np), float64(uRaw) / 255 * 0.02
}

// gammaFeasibilityIsSound recomputes γ for one input and serves the queue
// greedily in P_i(γ) order, reporting whether every deadline holds.
func gammaFeasibilityIsSound(t *testing.T, seed int64, n, uRaw uint8) bool {
	ready, st, u := feasibilityQueue(seed, n, uRaw)
	count, np := len(ready), st.NumProcs
	d := NewDynamic(0.02)
	d.SetNominalU(u)
	d.Recompute(0, ready, st)
	if d.Overloaded() {
		return true // nothing to verify
	}
	gamma := d.Gamma()

	// Greedy list schedule in P_i(γ) order.
	order := make([]*Job, count)
	copy(order, ready)
	sort.SliceStable(order, func(i, j int) bool {
		return gamma*float64(order[i].Task.Priority)+float64(order[i].LatestStart()) <
			gamma*float64(order[j].Task.Priority)+float64(order[j].LatestStart())
	})
	free := make([]simtime.Time, np)
	for _, j := range order {
		// Earliest-available processor.
		p := 0
		for k := 1; k < np; k++ {
			if free[k] < free[p] {
				p = k
			}
		}
		finish := free[p] + j.EstExec
		free[p] = finish
		if finish >= j.AbsDeadline {
			// Eq. 11 uses an averaged load bound, which is
			// conservative relative to this exact greedy
			// schedule on np=1, but can be optimistic for
			// np>1 (it ignores packing). Accept a small
			// packing slack on multiprocessors.
			if np == 1 {
				t.Logf("γ=%v claimed feasible but job %d finishes %v after deadline %v",
					gamma, j.Task.ID, finish, j.AbsDeadline)
				return false
			}
			if float64(finish-j.AbsDeadline) > float64(j.EstExec) {
				t.Logf("np=%d: job %d overruns deadline by %v (> one job of slack)",
					np, j.Task.ID, finish-j.AbsDeadline)
				return false
			}
		}
	}
	return true
}
