package run

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"hcperf/internal/experiment"
	"hcperf/internal/fleet"
	"hcperf/internal/lifecycle"
	"hcperf/internal/scenario"
	"hcperf/internal/search"
)

// traceCapacity bounds the per-run lifecycle event buffer. At the 23-task
// graph's aggregate job rate a full-length run fits comfortably; overflow
// drops oldest-first (the ring records the drop count) rather than growing
// without bound while a request is in flight.
const traceCapacity = 1 << 20

// Result is a completed run: the rendered report plus, for traced
// scenario runs, the captured lifecycle events and, for optimize runs, the
// structured search report. A Result is immutable once returned, which is
// what lets ReportDigest and ReportView compute their values once and
// share them.
type Result struct {
	Report   *experiment.Report
	Events   []lifecycle.Event
	Optimize *search.Report

	digestOnce sync.Once
	digest     string
	digestErr  error

	viewOnce sync.Once
	view     []byte
	viewErr  error
}

// ReportDigest returns Report.Digest, computed on the first call and
// memoized for every later one, so a result hashes its series at most once
// in its life. Execute never calls it. The first call comes from whichever
// needs the digest first: EncodeResult, when a fresh result is persisted
// to a store, or the serving layer's first render. A result restored by
// DecodeResult arrives with the memo already set from its disk entry.
func (r *Result) ReportDigest() (string, error) {
	r.digestOnce.Do(func() { r.digest, r.digestErr = r.Report.Digest() })
	return r.digest, r.digestErr
}

// ReportView returns the JSON of Report.View(false), the report without
// its samples, as the serving layer's status body nests it: indented by
// two spaces a level, starting one level deep. It is rendered on the first
// call and memoized for every later one, so a resident result renders its
// report once in its life.
func (r *Result) ReportView() ([]byte, error) {
	r.viewOnce.Do(func() { r.view, r.viewErr = json.MarshalIndent(r.Report.View(false), "  ", "  ") })
	return r.view, r.viewErr
}

// Func executes one normalized request. The pipeline's and the serving
// layer's default is Execute; tests inject controllable fakes.
type Func func(ctx context.Context, req Request) (*Result, error)

// Execute runs a normalized request for real: registry experiments go
// through experiment.Run with serial sweeps, optimize requests through the
// search subsystem (fanned across the ctx-carried worker-count hint and
// reporting generation progress through the ctx-carried sink), and
// scenario and spec requests through the scenario package's spec runner
// (capturing lifecycle events into a bounded ring when Trace is set).
func Execute(ctx context.Context, req Request) (*Result, error) {
	if req.Optimize != nil {
		return runOptimize(ctx, req)
	}
	if req.Experiment != "" {
		rep, err := experiment.Run(req.Experiment, req.Seed, 1)
		if err != nil {
			return nil, err
		}
		return &Result{Report: rep}, nil
	}
	return runScenario(req)
}

// runScenario executes one scenario or inline-spec request through the
// scenario package's declarative spec runner and renders its key metrics
// as a Report, so experiment, scenario and spec runs share one result
// shape (and one cache) end to end.
func runScenario(req Request) (*Result, error) {
	var spec scenario.Spec
	var id string
	if req.Spec != nil {
		spec = *req.Spec
		id = "spec-" + spec.Scenario
		if spec.Name != "" {
			id = "spec-" + spec.Name
		}
	} else {
		spec = scenario.Spec{
			Scenario: req.Scenario,
			Scheme:   req.Scheme,
			Seed:     req.Seed,
			Duration: req.Duration,
		}
		id = "run-" + req.Scenario
	}

	var ring *lifecycle.Ring
	var tracer lifecycle.Tracer
	if req.Trace {
		var err error
		if ring, err = lifecycle.NewRing(traceCapacity); err != nil {
			return nil, err
		}
		tracer = ring
	}

	r, err := fleet.RunSpec(spec, tracer)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Report: &experiment.Report{
			ID:     id,
			Title:  r.Title,
			Header: []string{"quantity", "value"},
			Rows:   r.Rows,
			Series: r.Rec,
		},
	}
	if ring != nil {
		res.Events = ring.Events()
		if n := ring.Dropped(); n > 0 {
			res.Report.Notes = append(res.Report.Notes,
				fmt.Sprintf("trace: %d oldest lifecycle events dropped (buffer capacity %d)", n, traceCapacity))
		}
	}
	return res, nil
}

// progressKey carries a per-job progress sink through the execution
// context: the serving layer's manager installs the sink in runJob, and
// runOptimize hands it to search.Run as the OnProgress callback. Progress
// therefore flows job-ward without the search subsystem knowing about
// jobs.
type progressKey struct{}

// WithProgress attaches a progress sink to ctx; Execute forwards search
// generation progress of optimize runs to it.
func WithProgress(ctx context.Context, fn func(search.Progress)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the sink, or nil when none is attached (direct
// Execute calls outside the manager).
func progressFrom(ctx context.Context) func(search.Progress) {
	fn, _ := ctx.Value(progressKey{}).(func(search.Progress))
	return fn
}

// parallelKey carries a worker-count hint for optimize runs through the
// execution context. Parallelism is an execution resource, not part of a
// run's identity — determinism is worker-count independent by the runner
// harness — so it travels beside the request, never inside its digest.
type parallelKey struct{}

// WithParallelism attaches a worker-count hint for optimize runs to ctx
// (n >= 1 selects exactly n workers, 0 selects GOMAXPROCS — the runner
// convention). hcperf-sim -mode tune's -parallel flag uses this; the
// serving layer leaves it unset and gets GOMAXPROCS. No other run kind
// reads it.
func WithParallelism(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, parallelKey{}, n)
}

// parallelismFrom extracts the worker-count hint, defaulting to 0
// (GOMAXPROCS).
func parallelismFrom(ctx context.Context) int {
	n, _ := ctx.Value(parallelKey{}).(int)
	return n
}

// runOptimize executes one normalized optimize request. The search fans its
// candidate evaluations across GOMAXPROCS workers (determinism is
// worker-count independent by the runner harness), and the resulting Pareto
// report is wrapped as an experiment.Report so optimize runs flow through
// the same result cache, digesting and rendering as every other run kind.
func runOptimize(ctx context.Context, req Request) (*Result, error) {
	rep, err := req.Optimize.Run(ctx, parallelismFrom(ctx), progressFrom(ctx))
	if err != nil {
		return nil, err
	}
	exp := &experiment.Report{
		ID: "optimize-" + req.Optimize.Spec.Scenario,
		Title: fmt.Sprintf("Coordinator policy search (%s, budget %d, %d seeds)",
			req.Optimize.Strategy, req.Optimize.Budget, req.Optimize.Seeds),
		Header: rep.Header(),
		Rows:   rep.Rows(),
	}
	for _, b := range rep.Best {
		verdict := "no improvement over the paper defaults"
		if b.Improved {
			verdict = fmt.Sprintf("improves on the paper defaults (%s)", fmtBest(b.Baseline))
		}
		exp.Notes = append(exp.Notes, fmt.Sprintf("%s: best %s — %s", b.Objective, fmtBest(b.Value), verdict))
	}
	return &Result{Report: exp, Optimize: rep}, nil
}

// fmtBest renders one objective value for the notes.
func fmtBest(v float64) string { return fmt.Sprintf("%.6g", v) }
