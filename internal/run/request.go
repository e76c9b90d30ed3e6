// Package run is the one canonical run pipeline every entry path routes
// through: Request (experiment | scenario | spec | fleet | optimize) →
// Normalize → Digest → Execute → Result (report + series + trace handles).
// The CLI (hcperf-sim sim/spec/tune/suite modes) and the HTTP service
// (POST /v1/runs, /v1/optimize, /v1/sweeps) are both thin callers of this
// package, so a run is the same computation — and the same content address
// — no matter which door it came in through.
//
// The digest namespace is load-bearing: it predates this package (it was
// the serving layer's request digest) and is pinned by tests, so a report
// computed before the extraction remains a disk-store hit after it.
package run

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hcperf/internal/experiment"
	"hcperf/internal/scenario"
	"hcperf/internal/search"
)

// Request is one run of the pipeline: a registered experiment (the paper's
// tables and figures), a single scenario run under one scheduling scheme,
// an inline declarative scenario spec (including fleet specs), or a policy
// search. Requests are canonicalized and content-addressed — the run ID is
// a digest over the normalized fields, so identical requests share one
// execution and one cached result across every entry path and process
// restart.
type Request struct {
	// Experiment is a registry ID (see GET /v1/experiments), e.g.
	// "fig13". Mutually exclusive with Scenario and Spec.
	Experiment string `json:"experiment,omitempty"`
	// Scenario is a driving scenario: aeb | carfollow | combined |
	// hardware | jam | lanekeep | motivation.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline declarative scenario spec (scenario.Spec): full
	// control over graph loads, rate overrides, obstacle profiles and
	// coordinator knobs. Mutually exclusive with Experiment and
	// Scenario; Scheme, Seed and Duration then live inside the spec.
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Optimize is an inline policy-search request (search.Request): a
	// spec template plus a parameter space, strategy and budget. Mutually
	// exclusive with the other three kinds; everything — template spec,
	// seed, budget — lives inside the optimize request. POST /v1/optimize
	// is shorthand for submitting one of these.
	Optimize *search.Request `json:"optimize,omitempty"`
	// Scheme selects the scheduling scheme for scenario runs (default
	// "hcperf"): hpf | edf | edfvd | apollo | hcperf | hcperf-internal.
	Scheme string `json:"scheme,omitempty"`
	// Seed drives all run randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration overrides the scenario duration in seconds (0 = scenario
	// default). Ignored for experiment runs.
	Duration float64 `json:"duration,omitempty"`
	// Trace captures per-job lifecycle events during scenario and spec
	// runs, served by GET /v1/runs/{id}/trace. Ignored for experiment
	// runs.
	Trace bool `json:"trace,omitempty"`
}

// scenarioNames is the closed set of scenario run kinds, shared with the
// scenario package's spec layer.
var scenarioNames = func() map[string]bool {
	out := make(map[string]bool)
	for _, name := range scenario.ScenarioNames() {
		out[name] = true
	}
	return out
}()

// ScenarioNames reports whether name is a known scenario run kind.
func KnownScenario(name string) bool { return scenarioNames[name] }

// Normalize validates the request and fills defaults so that every
// equivalent request maps to the same canonical form (and therefore the
// same digest).
func (r Request) Normalize() (Request, error) {
	set := 0
	for _, on := range []bool{r.Experiment != "", r.Scenario != "", r.Spec != nil, r.Optimize != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return r, fmt.Errorf("exactly one of experiment, scenario, spec or optimize must be set")
	}
	if r.Optimize != nil {
		// The template spec, seed and budget all live inside the optimize
		// request; zero request-level copies cannot split the cache.
		if r.Scheme != "" || r.Seed != 0 || r.Duration != 0 || r.Trace {
			return r, fmt.Errorf("optimize runs take scheme, seed, duration and trace inside the optimize request")
		}
		rq, err := r.Optimize.Normalize()
		if err != nil {
			return r, err
		}
		r.Optimize = &rq
		return r, nil
	}
	if r.Spec != nil {
		// Scheme, seed and duration live inside the spec; zero the
		// request-level copies so they cannot split the cache.
		if r.Scheme != "" || r.Seed != 0 || r.Duration != 0 {
			return r, fmt.Errorf("spec runs take scheme, seed and duration inside the spec")
		}
		spec, err := r.Spec.Normalize()
		if err != nil {
			return r, err
		}
		r.Spec = &spec
		return r, nil
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Experiment != "" {
		if _, ok := experiment.Lookup(r.Experiment); !ok {
			return r, fmt.Errorf("unknown experiment %q", r.Experiment)
		}
		// Scheme, duration and trace have no meaning for registry
		// experiments; zero them so they cannot split the cache.
		r.Scheme, r.Duration, r.Trace = "", 0, false
		return r, nil
	}
	if !scenarioNames[r.Scenario] {
		return r, fmt.Errorf("unknown scenario %q", r.Scenario)
	}
	if r.Scheme == "" {
		r.Scheme = "hcperf"
	}
	if _, err := scenario.ParseScheme(r.Scheme); err != nil {
		return r, err
	}
	if r.Duration < 0 {
		return r, fmt.Errorf("duration must be >= 0, got %g", r.Duration)
	}
	return r, nil
}

// Digest returns the content address of a normalized request: a SHA-256
// over every canonical field with explicit separators, so distinct
// requests cannot alias. Inline specs contribute their canonical JSON
// encoding (Normalize makes it a fixed point, and encoding/json sorts map
// keys). Two submissions with equal digests are the same run —
// determinism of the underlying simulations (enforced by the
// internal/runner harness) makes serving the cached Result correct.
//
// The byte layout is frozen: it must keep producing exactly the digests
// the pre-extraction service code produced (pinned by the compatibility
// test in internal/service), or every existing disk-store entry silently
// invalidates.
func (r Request) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "exp=%s;scn=%s;scheme=%s;seed=%d;dur=%g;trace=%t",
		r.Experiment, r.Scenario, r.Scheme, r.Seed, r.Duration, r.Trace)
	if r.Spec != nil {
		// Marshal of a validated spec cannot fail: every field is a
		// plain value and Normalize rejected non-finite numbers.
		b, err := json.Marshal(r.Spec)
		if err != nil {
			panic(fmt.Sprintf("run: marshal normalized spec: %v", err))
		}
		fmt.Fprintf(h, ";spec=%s", b)
	}
	if r.Optimize != nil {
		// The request is already normalized, so Marshal is its canonical
		// encoding (search.Request.Normalize is a fixed point).
		b, err := json.Marshal(r.Optimize)
		if err != nil {
			panic(fmt.Sprintf("run: marshal normalized optimize request: %v", err))
		}
		fmt.Fprintf(h, ";opt=%s", b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Kind labels the request for metrics: the experiment ID, the scenario
// name, or "spec:<scenario>" for inline specs.
func (r Request) Kind() string {
	switch {
	case r.Experiment != "":
		return r.Experiment
	case r.Optimize != nil:
		return "optimize:" + r.Optimize.Spec.Scenario
	case r.Spec != nil:
		return "spec:" + r.Spec.Scenario
	default:
		return r.Scenario
	}
}
