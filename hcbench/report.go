package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// metric is one reported figure. Samples is the number of observations
// behind it; Alias is the name the figure has in the benchmark's design
// notes (LAYERS.md) when the BENCHMARK.json name is shared across
// workloads.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Alias   string
}

// result collects one invocation's outcome: the metrics for the final JSON
// line, extra figures that are printed but not part of the JSON, request
// accounting, and every output-check failure.
type result struct {
	metrics   []metric
	extra     []metric
	phases    []phaseCount
	attempted int
	failed    int
	problems  []string
}

// phaseCount is the request accounting of one measured phase.
type phaseCount struct {
	Name                                   string
	Sent, OK, Failed, Refused, WrongOutput int
}

// tally counts a phase's outcomes.
func tally(name string, outs []outcome) phaseCount {
	p := phaseCount{Name: name, Sent: len(outs)}
	for _, o := range outs {
		switch o {
		case outcomeOK:
			p.OK++
		case outcomeFailed:
			p.Failed++
		case outcomeRefused:
			p.Refused++
		case outcomeWrong:
			p.WrongOutput++
		}
	}
	return p
}

func (p phaseCount) bad() int { return p.Failed + p.Refused + p.WrongOutput }

func (r *result) add(name string, v float64, unit string, n int, alias string) {
	r.metrics = append(r.metrics, metric{name, v, unit, n, alias})
}

func (r *result) note(name string, v float64, unit string, n int) {
	r.extra = append(r.extra, metric{name, v, unit, n, ""})
}

// pct records the q-quantile of xs as metric name, or a problem when fewer
// than minBeyond samples lie beyond it.
func (r *result) pct(name string, xs []float64, q float64, unit, alias string) {
	v, beyond := quantile(append([]float64(nil), xs...), q)
	if beyond < minBeyond {
		r.fail("%s: %d samples leave %d beyond the %g quantile, need %d", name, len(xs), beyond, q, minBeyond)
	}
	r.add(name, v, unit, len(xs), alias)
}

// notePct prints the q-quantile of xs beside the metrics when at least
// minBeyond samples lie beyond it, and leaves it out otherwise.
func (r *result) notePct(name string, xs []float64, q float64, unit string) {
	if v, beyond := quantile(append([]float64(nil), xs...), q); beyond >= minBeyond {
		r.note(name, v, unit, len(xs))
	}
}

// setupTimes records a run's repeated set-ups. setup_s is their median CPU
// time, the benchmark's plus that of the server the set-up booted: the work
// a set-up does, which is what a change that moves work into set-up would
// grow, without the CPU time the virtual machine's host steals. Wall time
// is printed beside it.
type setupTimes struct{ wall, cpu []float64 }

// time runs one set-up; fn returns the CPU time of the server it left
// running (0 when it boots none).
func (s *setupTimes) time(fn func() (time.Duration, error)) error {
	start, cpu0 := time.Now(), selfCPU()
	server, err := fn()
	if err != nil {
		return err
	}
	s.wall = append(s.wall, time.Since(start).Seconds())
	s.cpu = append(s.cpu, (selfCPU() - cpu0 + server).Seconds())
	return nil
}

func (s *setupTimes) report(r *result, what string) {
	r.add("setup_s", median(s.cpu), "s", len(s.cpu), "CPU time of "+what+", median")
	r.note("setup_wall_s", median(s.wall), "s", len(s.wall))
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) count(p phaseCount) {
	r.phases = append(r.phases, p)
	r.attempted += p.Sent
	r.failed += p.bad()
}

// write prints the human-readable table and then, as the last line, the
// JSON object the benchmark contract asks for.
func (r *result) write(w io.Writer) error {
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-22s sent=%d ok=%d failed=%d refused=%d wrong=%d\n",
			p.Name, p.Sent, p.OK, p.Failed, p.Refused, p.WrongOutput)
	}
	for _, m := range r.metrics {
		alias := ""
		if m.Alias != "" {
			alias = "  [" + m.Alias + "]"
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, alias)
	}
	for _, m := range r.extra {
		fmt.Fprintf(w, "  also %-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	errRatio := 0.0
	if r.attempted > 0 {
		errRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_ratio %.6g (%d of %d requests failed, refused or wrong)\n", errRatio, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
