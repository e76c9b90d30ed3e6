package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hcperf/internal/search"
	"hcperf/internal/store"
)

// latencyBuckets are the upper bounds (seconds) of the run-duration
// histogram, chosen to resolve both sub-millisecond toy experiments and
// multi-second full sweeps.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket latency histogram. Guarded by Metrics.mu.
type histogram struct {
	counts []uint64 // one per bucket, plus +Inf at the end
	sum    float64
	n      uint64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Metrics aggregates the serving layer's operational counters and exports
// them in Prometheus text format at GET /metrics. Counters are atomics so
// the hot path never takes the histogram lock unless it records a latency.
type Metrics struct {
	// DedupHits counts submissions coalesced onto an in-flight identical
	// run; Misses counts submissions that scheduled a new execution.
	// Submissions answered from a completed run are Store.MemoryHits or
	// Store.DiskHits.
	DedupHits, Misses atomic.Uint64
	// Shed counts submissions rejected with 429 because the queue was
	// full; Rejected counts submissions refused during drain (503).
	Shed, Rejected atomic.Uint64
	// Completed / Failed / Cancelled count finished executions by
	// outcome.
	Completed, Failed, Cancelled atomic.Uint64
	// InFlight is the number of executions currently running.
	InFlight atomic.Int64
	// OptimizeCandidates counts candidate evaluations across all optimize
	// jobs; OptimizeGenerations counts completed search generations.
	OptimizeCandidates, OptimizeGenerations atomic.Uint64
	// SweepCells / SweepCacheHits count batch-sweep cells streamed and
	// cells satisfied from a store tier without re-execution.
	SweepCells, SweepCacheHits atomic.Uint64
	// Store holds the tiered result store's per-tier counters (shared
	// with the disk store); never nil.
	Store *store.Metrics

	mu           sync.Mutex
	latency      map[string]*histogram // per experiment/scenario kind
	optimizeBest map[string]float64    // best-so-far per objective, across optimize jobs
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		Store:        &store.Metrics{},
		latency:      make(map[string]*histogram),
		optimizeBest: make(map[string]float64),
	}
}

// ObserveLatency records one completed execution's wall-clock duration
// under its experiment/scenario kind.
func (m *Metrics) ObserveLatency(kind string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[kind]
	if !ok {
		h = &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
		m.latency[kind] = h
	}
	h.observe(seconds)
}

// objectiveMaximize maps each search objective to its orientation, so the
// best-so-far gauge aggregates across jobs in the right direction.
var objectiveMaximize = func() map[string]bool {
	out := make(map[string]bool)
	for _, o := range search.AllObjectives() {
		out[o.Name] = o.Maximize
	}
	return out
}()

// ObserveOptimize folds one optimize job's generation snapshot into the
// counters: candidate/generation deltas against the job's previous snapshot
// and the cross-job best-so-far per objective.
func (m *Metrics) ObserveOptimize(p, prev search.Progress) {
	if d := p.Evaluated - prev.Evaluated; d > 0 {
		m.OptimizeCandidates.Add(uint64(d))
	}
	if d := p.Generations - prev.Generations; d > 0 {
		m.OptimizeGenerations.Add(uint64(d))
	}
	m.mu.Lock()
	for name, v := range p.Best {
		cur, ok := m.optimizeBest[name]
		if !ok || (objectiveMaximize[name] && v > cur) || (!objectiveMaximize[name] && v < cur) {
			m.optimizeBest[name] = v
		}
	}
	m.mu.Unlock()
}

// LiveStats carries the point-in-time gauge values WritePrometheus cannot
// read from its own counters: queue depth and cache size come from the
// manager, and the rate-limiter / circuit-breaker readings come from the
// policy layer (which lives outside Metrics so the handlers stay the only
// code that knows both halves). Zero-valued policy fields with HasLimiter /
// HasBreaker false simply omit those metric families, keeping the
// exposition identical to older deployments that run without a policy
// layer.
type LiveStats struct {
	QueueDepth, CacheLen int

	// HasLimiter gates the hcperf_ratelimit_* family.
	HasLimiter                         bool
	RatelimitAllowed, RatelimitLimited uint64
	RatelimitKeys                      int

	// HasBreaker gates the hcperf_breaker_* family. BreakerState uses the
	// policy.BreakerState encoding: 0 closed, 1 half-open, 2 open.
	HasBreaker                         bool
	BreakerState                       int
	BreakerOpens, BreakerShortCircuits uint64
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. live is read from the manager and policy layer at scrape time so
// the gauges cannot go stale.
func (m *Metrics) WritePrometheus(w io.Writer, live LiveStats) error {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	gauge := func(name, help string, v any) {
		add("# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		add("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("hcperf_queue_depth", "Jobs waiting in the submission queue.", live.QueueDepth)
	gauge("hcperf_inflight_runs", "Executions currently running.", m.InFlight.Load())
	gauge("hcperf_cache_entries", "Completed runs held in the LRU result cache.", live.CacheLen)
	if live.HasLimiter {
		counter("hcperf_ratelimit_allowed_total", "Requests admitted by the per-client rate limiter.", live.RatelimitAllowed)
		counter("hcperf_ratelimit_limited_total", "Requests rejected with 429 by the per-client rate limiter.", live.RatelimitLimited)
		gauge("hcperf_ratelimit_tracked_keys", "Client keys currently tracked by the rate limiter.", live.RatelimitKeys)
	}
	if live.HasBreaker {
		gauge("hcperf_breaker_state", "Execute-stage circuit breaker state (0 closed, 1 half-open, 2 open).", live.BreakerState)
		counter("hcperf_breaker_opens_total", "Times the circuit breaker tripped open.", live.BreakerOpens)
		counter("hcperf_breaker_shortcircuit_total", "Executions fast-failed while the breaker was open.", live.BreakerShortCircuits)
	}
	counter("hcperf_dedup_hits_total", "Submissions coalesced onto an in-flight identical run.", m.DedupHits.Load())
	counter("hcperf_cache_misses_total", "Submissions that scheduled a new execution.", m.Misses.Load())
	counter("hcperf_shed_total", "Submissions rejected with 429 because the queue was full.", m.Shed.Load())
	counter("hcperf_drain_rejected_total", "Submissions refused with 503 during drain.", m.Rejected.Load())
	counter("hcperf_runs_completed_total", "Executions that finished successfully.", m.Completed.Load())
	counter("hcperf_runs_failed_total", "Executions that finished with an error.", m.Failed.Load())
	counter("hcperf_runs_cancelled_total", "Executions cancelled by shutdown before or while running.", m.Cancelled.Load())
	counter("hcperf_optimize_candidates_total", "Candidate evaluations across all optimize jobs.", m.OptimizeCandidates.Load())
	counter("hcperf_optimize_generations_total", "Completed search generations across all optimize jobs.", m.OptimizeGenerations.Load())
	counter("hcperf_sweep_cells_total", "Batch-sweep cells processed.", m.SweepCells.Load())
	counter("hcperf_sweep_cache_hits_total", "Batch-sweep cells satisfied from a store tier without re-execution.", m.SweepCacheHits.Load())

	// The tiered result store, one counter family per metric with a tier
	// label, so dashboards can tell a warm memory cache from a disk
	// restore after a restart.
	tiered := func(name, help string, memory, disk uint64) {
		add("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		add("%s{tier=\"memory\"} %d\n", name, memory)
		add("%s{tier=\"disk\"} %d\n", name, disk)
	}
	st := m.Store
	tiered("hcperf_store_hits_total", "Result-store lookups satisfied, by tier.",
		st.MemoryHits.Load(), st.DiskHits.Load())
	tiered("hcperf_store_misses_total", "Result-store lookups that fell through, by tier.",
		st.MemoryMisses.Load(), st.DiskMisses.Load())
	tiered("hcperf_store_evictions_total", "Result-store entries evicted to stay within capacity, by tier.",
		st.MemoryEvictions.Load(), st.DiskEvictions.Load())
	counter("hcperf_store_corrupt_total", "Disk-store entries that failed to decode and were quarantined.", st.Corrupt.Load())

	m.mu.Lock()
	if len(m.optimizeBest) > 0 {
		names := make([]string, 0, len(m.optimizeBest))
		for name := range m.optimizeBest {
			names = append(names, name)
		}
		sort.Strings(names)
		add("# HELP hcperf_optimize_best Best objective value found across all optimize jobs.\n")
		add("# TYPE hcperf_optimize_best gauge\n")
		for _, name := range names {
			add("hcperf_optimize_best{objective=%q} %g\n", name, m.optimizeBest[name])
		}
	}
	m.mu.Unlock()

	m.mu.Lock()
	kinds := make([]string, 0, len(m.latency))
	for k := range m.latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if len(kinds) > 0 {
		add("# HELP hcperf_run_duration_seconds Wall-clock duration of completed executions.\n")
		add("# TYPE hcperf_run_duration_seconds histogram\n")
	}
	for _, k := range kinds {
		h := m.latency[k]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			add("hcperf_run_duration_seconds_bucket{experiment=%q,le=%q} %d\n", k, fmt.Sprintf("%g", ub), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		add("hcperf_run_duration_seconds_bucket{experiment=%q,le=\"+Inf\"} %d\n", k, cum)
		add("hcperf_run_duration_seconds_sum{experiment=%q} %g\n", k, h.sum)
		add("hcperf_run_duration_seconds_count{experiment=%q} %d\n", k, h.n)
	}
	m.mu.Unlock()

	_, err := w.Write(b)
	return err
}
