// Package search is the policy-search and auto-tuning subsystem over the
// HCPerf coordinator parameter space. It explores the knobs the paper
// hand-picks — γmax cap, MFC window, rate-adapter gains, rate-band scales
// and the dispatch scheme — by running a scenario.Spec template under many
// candidate tunings (K replica seeds per candidate, each run on its own
// event queue) and extracting the Pareto front over scored objectives.
//
// Everything is deterministic by construction: the space has a canonical
// JSON encoding that folds into the serving layer's content-addressed cache
// digest, candidate values are index-quantized on exact grids, the
// strategies draw from splitmix64-derived per-generation RNG streams, and
// the front is reduced in a canonical order — so a whole search is
// replayable and its report digest-pinnable.
package search

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"hcperf/internal/core"
	"hcperf/internal/scenario"
	"hcperf/internal/simtime"
)

// Parameter names the space understands, in canonical (sorted) order. Each
// maps onto one core.Tunables knob through the scenario spec surface.
const (
	ParamGammaCap    = "gamma_cap"     // Dynamic scheduler γmax cap
	ParamMFCWindowMS = "mfc_window_ms" // PDC derivative-estimation window
	ParamRMaxScale   = "r_max_scale"   // source-task MaxRate multiplier
	ParamRMinScale   = "r_min_scale"   // source-task MinRate multiplier
	ParamRateDecay   = "rate_decay"    // adapter gain decay per stable period
	ParamRateKp0     = "rate_kp0"      // adapter initial gain
)

// paramBound is the hard validity range for one known parameter; spaces
// may only search inside it. Every lower bound is strictly positive: a
// zero value would collide with the spec layer's "use the paper default"
// sentinel.
type paramBound struct{ lo, hi float64 }

var paramBounds = map[string]paramBound{
	ParamGammaCap:    {0.0005, 10},
	ParamMFCWindowMS: {100, 5000},
	ParamRMaxScale:   {0.05, 4},
	ParamRMinScale:   {0.05, 4},
	ParamRateDecay:   {0.05, 0.995},
	ParamRateKp0:     {0.01, 10},
}

// paramDefault returns the paper-default value of a known parameter — the
// baseline candidate every search evaluates first.
func paramDefault(name string) float64 {
	d := core.DefaultTunables()
	switch name {
	case ParamGammaCap:
		return d.GammaCap
	case ParamMFCWindowMS:
		return float64(d.MFCWindow) / float64(simtime.Millisecond)
	case ParamRMaxScale:
		return d.RMaxScale
	case ParamRMinScale:
		return d.RMinScale
	case ParamRateDecay:
		return d.RateDecay
	case ParamRateKp0:
		return d.RateKp0
	default:
		panic(fmt.Sprintf("search: no default for parameter %q", name))
	}
}

// ParamNames lists the searchable parameters in canonical order.
func ParamNames() []string {
	names := make([]string, 0, len(paramBounds))
	for n := range paramBounds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Param is one quantized dimension of the space: the candidate values are
// exactly Min + i·Step for i in [0, Levels), the last level clamped to Max.
// Quantization is part of the contract — two candidates agreeing on grid
// indices agree bit-for-bit on values, so dedup and replay are exact.
type Param struct {
	// Name is one of the known parameter names (ParamNames).
	Name string `json:"name"`
	// Min and Max bound the searched range, inside the parameter's hard
	// validity bounds.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Step is the quantization step (> 0).
	Step float64 `json:"step"`
}

// Levels returns the number of grid points on the dimension.
func (p Param) Levels() int {
	if p.Step <= 0 || p.Max < p.Min {
		return 0
	}
	// The epsilon absorbs binary-representation shortfall in (Max-Min)/Step
	// for humanly-chosen decimal ranges like [0.2, 1.6] step 0.2.
	return int(math.Floor((p.Max-p.Min)/p.Step+1e-9)) + 1
}

// Value returns the exact grid value at index i, clamped to [Min, Max].
func (p Param) Value(i int) float64 {
	v := p.Min + float64(i)*p.Step
	if v > p.Max {
		v = p.Max
	}
	return v
}

// validate checks the dimension against its hard bounds.
func (p Param) validate() error {
	b, ok := paramBounds[p.Name]
	if !ok {
		return fmt.Errorf("search: unknown parameter %q (have %s)", p.Name, strings.Join(ParamNames(), ", "))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"min", p.Min}, {"max", p.Max}, {"step", p.Step}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("search: parameter %q %s must be finite", p.Name, f.name)
		}
	}
	if p.Min < b.lo || p.Max > b.hi {
		return fmt.Errorf("search: parameter %q range [%v,%v] outside hard bounds [%v,%v]",
			p.Name, p.Min, p.Max, b.lo, b.hi)
	}
	if p.Max < p.Min {
		return fmt.Errorf("search: parameter %q range [%v,%v] inverted", p.Name, p.Min, p.Max)
	}
	if p.Step <= 0 {
		return fmt.Errorf("search: parameter %q step %v must be positive", p.Name, p.Step)
	}
	if n := p.Levels(); n > maxLevels {
		return fmt.Errorf("search: parameter %q has %d levels (max %d)", p.Name, n, maxLevels)
	}
	return nil
}

// maxLevels bounds one dimension's grid so a malformed space cannot demand
// an absurd enumeration.
const maxLevels = 4096

// Space is the searchable parameter space: a set of quantized dimensions
// plus the candidate dispatch schemes. Its canonical form (Normalize) has
// the params sorted by name and the schemes sorted and deduplicated, so the
// JSON encoding is a stable cache-key component.
type Space struct {
	// Params are the searched dimensions; parameters not listed stay at
	// their paper defaults.
	Params []Param `json:"params"`
	// Schemes are the candidate dispatch schemes (default ["hcperf"]).
	// Coordinator parameters are still stamped on non-HCPerf candidates:
	// only the rate-band scales have any effect there (they reshape the
	// initial sensor rates), which is exactly the EDF-vs-Dynamic
	// comparison the space is for.
	Schemes []string `json:"schemes,omitempty"`
}

// DefaultSpace is the paper-motivated search space: the γ cap, MFC window
// and adapter gains around their hand-picked values, the rate ceiling
// scale, and the EDF-vs-HCPerf scheduler choice.
func DefaultSpace() *Space {
	return &Space{
		Params: []Param{
			{Name: ParamGammaCap, Min: 0.005, Max: 0.1, Step: 0.005},
			{Name: ParamMFCWindowMS, Min: 200, Max: 1000, Step: 100},
			{Name: ParamRMaxScale, Min: 0.6, Max: 1, Step: 0.1},
			{Name: ParamRateDecay, Min: 0.8, Max: 0.98, Step: 0.02},
			{Name: ParamRateKp0, Min: 0.2, Max: 1.6, Step: 0.2},
		},
		Schemes: []string{"edf", "hcperf"},
	}
}

// Normalize validates the space and returns its canonical form: params
// sorted by name, schemes defaulted, sorted and deduplicated. It is
// idempotent, making the encoded form a stable cache key.
func (sp Space) Normalize() (Space, error) {
	if len(sp.Params) == 0 {
		return sp, fmt.Errorf("search: space has no parameters")
	}
	params := append([]Param(nil), sp.Params...)
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	for i, p := range params {
		if err := p.validate(); err != nil {
			return sp, err
		}
		if i > 0 && params[i-1].Name == p.Name {
			return sp, fmt.Errorf("search: duplicate parameter %q", p.Name)
		}
	}
	schemes := append([]string(nil), sp.Schemes...)
	if len(schemes) == 0 {
		schemes = []string{"hcperf"}
	}
	sort.Strings(schemes)
	out := schemes[:0]
	for i, name := range schemes {
		if _, err := scenario.ParseScheme(name); err != nil {
			return sp, err
		}
		if i > 0 && schemes[i-1] == name {
			continue
		}
		out = append(out, name)
	}
	sp.Params = params
	sp.Schemes = out
	return sp, nil
}

// Size returns the total number of distinct grid candidates.
func (sp *Space) Size() int {
	n := len(sp.Schemes)
	for _, p := range sp.Params {
		n *= p.Levels()
	}
	return n
}

// Candidate is one point of the space: a dispatch scheme plus one value per
// space dimension, aligned with the (canonically sorted) Params slice.
type Candidate struct {
	// Scheme is the dispatch scheme name.
	Scheme string `json:"scheme"`
	// Values holds one value per space parameter, in Params order.
	Values []float64 `json:"values"`
}

// Key returns the candidate's canonical identity string, used for
// deduplication and as the deterministic tie-break in Pareto ordering.
func (c Candidate) Key() string {
	var b strings.Builder
	b.WriteString(c.Scheme)
	for _, v := range c.Values {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

// candidateAt builds the candidate for one scheme and one grid index per
// dimension.
func (sp *Space) candidateAt(scheme string, idx []int) Candidate {
	vals := make([]float64, len(sp.Params))
	for i, p := range sp.Params {
		vals[i] = p.Value(idx[i])
	}
	return Candidate{Scheme: scheme, Values: vals}
}

// Baseline returns the paper-default candidate under the given scheme: the
// exact default value on every dimension, whether or not it lies on the
// grid. Searches evaluate it first so "strictly improves over the paper
// defaults" is always answerable from the same report.
func (sp *Space) Baseline(scheme string) Candidate {
	vals := make([]float64, len(sp.Params))
	for i, p := range sp.Params {
		vals[i] = paramDefault(p.Name)
	}
	return Candidate{Scheme: scheme, Values: vals}
}

// Apply stamps the candidate onto a copy of the template spec: the scheme
// replaces the template's, each dimension lands on its spec knob, and the
// result is re-normalized (which re-validates the assembled spec).
func (sp *Space) Apply(template scenario.Spec, c Candidate) (scenario.Spec, error) {
	if len(c.Values) != len(sp.Params) {
		return scenario.Spec{}, fmt.Errorf("search: candidate has %d values for %d parameters", len(c.Values), len(sp.Params))
	}
	s := template
	s.Scheme = c.Scheme
	var tb scenario.SpecTunables
	if s.Tunables != nil {
		tb = *s.Tunables
	}
	for i, p := range sp.Params {
		v := c.Values[i]
		switch p.Name {
		case ParamGammaCap:
			s.GammaCap = v
		case ParamMFCWindowMS:
			tb.MFCWindowMS = v
		case ParamRMaxScale:
			tb.RMaxScale = v
		case ParamRMinScale:
			tb.RMinScale = v
		case ParamRateDecay:
			tb.RateDecay = v
		case ParamRateKp0:
			tb.RateKp0 = v
		default:
			return scenario.Spec{}, fmt.Errorf("search: unknown parameter %q", p.Name)
		}
	}
	if tb != (scenario.SpecTunables{}) {
		s.Tunables = &tb
	}
	return s.Normalize()
}
