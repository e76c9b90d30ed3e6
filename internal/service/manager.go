// Package service turns the run pipeline (internal/run) into an online
// HTTP/JSON API: a bounded job queue with a worker pool built on
// runner.Map, a tiered content-addressed result store (in-memory LRU over
// an optional disk store, internal/store) with singleflight-style
// deduplication of identical submissions, a batch sweep endpoint that fans
// a spec template across a parameter grid, a resilience layer
// (internal/policy: per-client rate limiting with honest Retry-After and a
// circuit breaker guarding the execute stage), load shedding with 429 +
// Retry-After under overload, live Prometheus metrics, and a
// deadline-bounded graceful drain mirroring the shutdown discipline of
// internal/rt. Determinism of the underlying simulations (enforced by the
// internal/runner harness) is what makes serving a cached Report for a
// request digest correct: equal digests provably yield byte-identical
// reports.
package service

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"hcperf/internal/policy"
	"hcperf/internal/run"
	"hcperf/internal/runner"
	"hcperf/internal/search"
	"hcperf/internal/store"
)

// Sentinel errors Submit maps to HTTP statuses.
var (
	// ErrQueueFull is returned when the bounded submission queue cannot
	// take another job; handlers translate it to 429 + Retry-After.
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrDraining is returned once shutdown has begun; handlers
	// translate it to 503.
	ErrDraining = errors.New("service: draining, not accepting new runs")
)

// JobState is the lifecycle of one submitted run.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: finished successfully; Result is set.
	StateDone JobState = "done"
	// StateFailed: finished with an error; Err is set.
	StateFailed JobState = "failed"
	// StateCancelled: shutdown hit the drain deadline before the job
	// ran (or while a ctx-aware run was in flight).
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one content-addressed run. ID is the request digest, so any two
// jobs with the same ID are the same computation.
type Job struct {
	// ID is the canonical request digest.
	ID string
	// Req is the normalized request.
	Req RunRequest

	// seq is the submission order number, drawn from the manager's
	// atomic counter; queue position is the count of still-queued jobs
	// with a smaller seq.
	seq uint64

	// source records where the job's result materialized in this process:
	// TierMemory for runs computed here, TierDisk for results restored
	// from the disk store. Set once the job is terminal with a result;
	// meaningless (zero) before then and for failed runs.
	source store.Tier

	mu        sync.Mutex
	state     JobState
	result    *RunResult
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  *search.Progress // optimize jobs: latest generation snapshot

	// done is closed exactly once when the job reaches a terminal
	// state; waiters (tests, long-poll handlers) select on it.
	done chan struct{}
}

// JobSnapshot is a consistent copy of a job's mutable state.
type JobSnapshot struct {
	ID        string
	Req       RunRequest
	State     JobState
	Result    *RunResult
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Progress is the latest generation snapshot of a running optimize
	// job (nil otherwise).
	Progress *search.Progress
	// Source is the tier the result materialized from (memory for runs
	// computed by this process, disk for restored results); empty until
	// the job completes with a result.
	Source store.Tier
}

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := JobSnapshot{
		ID: j.ID, Req: j.Req, State: j.state, Result: j.result, Err: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Source: j.source,
	}
	if j.progress != nil {
		p := *j.progress
		snap.Progress = &p
	}
	return snap
}

// setProgress records an optimize job's latest generation snapshot.
func (j *Job) setProgress(p search.Progress) {
	j.mu.Lock()
	j.progress = &p
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
}

func (j *Job) finish(state JobState, res *RunResult, err error, now time.Time) {
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.finished = now
	j.mu.Unlock()
	close(j.done)
}

// SubmitOutcome says how a submission was satisfied.
type SubmitOutcome int

const (
	// SubmitNew: a fresh execution was queued.
	SubmitNew SubmitOutcome = iota
	// SubmitDeduped: an identical run is already queued or running; the
	// submission was coalesced onto it.
	SubmitDeduped
	// SubmitCached: an identical run already completed and is resident in
	// the in-memory result cache.
	SubmitCached
	// SubmitCachedDisk: an identical run completed in an earlier process
	// (or was evicted from memory) and was restored from the disk store.
	SubmitCachedDisk
)

// Tier maps a submission outcome to the store tier that satisfied it —
// the value of the X-HCPerf-Cache response header and the `cache` field of
// the submission response.
func (o SubmitOutcome) Tier() store.Tier {
	switch o {
	case SubmitCached:
		return store.TierMemory
	case SubmitCachedDisk:
		return store.TierDisk
	default:
		return store.TierMiss
	}
}

// ManagerConfig sizes the job manager.
type ManagerConfig struct {
	// Workers is the execution pool size (default 2).
	Workers int
	// QueueSize bounds the submission queue (default 64); a full queue
	// sheds load with ErrQueueFull.
	QueueSize int
	// CacheSize bounds the completed-run LRU (default 128), split across
	// the shards; evicted runs re-execute on resubmission.
	CacheSize int
	// Shards is the number of digest-partitioned shards the job map and
	// result LRU are split into (default 8). Each shard has its own
	// mutex, so submissions for different digests never contend; tests
	// that assert global LRU recency order use Shards: 1. Recency (and
	// therefore eviction) is tracked per shard: the CacheSize bound is
	// divided evenly, so the global bound holds to within rounding.
	Shards int
	// Run executes one request (default Execute). Tests inject
	// controllable fakes here.
	Run RunFunc
	// Metrics receives operational counters (default a fresh set).
	Metrics *Metrics
	// Disk is the persistent result tier under the in-memory cache; nil
	// (the default) runs memory-only, exactly the pre-disk-store
	// behavior.
	Disk *store.Disk
	// Breaker, when non-nil, guards the execute stage: jobs reaching a
	// worker while the breaker is open fail fast (and are forgotten, so
	// a resubmission re-executes once the stage recovers), and every
	// execution outcome feeds the breaker's sliding error window.
	Breaker *policy.Breaker
}

// shard is one digest partition of the job map: its own mutex, its own
// slice of the jobs map and its own recency LRU, so the mutex a
// submission takes depends only on its digest.
type shard struct {
	mu    sync.Mutex
	jobs  map[string]*Job // every known job in this partition
	cache *store.LRU      // recency order over finished jobs only
}

// Manager owns the submission queue, the worker pool, and the
// content-addressed result cache. The job map and LRU are partitioned
// into digest-addressed shards; within one shard a single mutex covers
// map and LRU together, so the singleflight invariant — at most one live
// job per digest — holds by construction exactly as it did under the
// former global mutex, while submissions for different digests no longer
// serialize on one lock.
type Manager struct {
	run     RunFunc
	metrics *Metrics
	disk    *store.Disk     // nil = memory-only
	breaker *policy.Breaker // nil = unguarded
	workers int             // pool size, also each sweep's window of outstanding cells

	baseCtx context.Context
	cancel  context.CancelFunc

	shards []shard
	queue  chan *Job
	seq    atomic.Uint64 // submission counter; orders queue positions

	// lifeMu serializes queue sends against close(queue): submissions
	// hold it shared around {draining check, queue send}, Shutdown holds
	// it exclusively around {draining = true, close}. Lock order is
	// shard.mu → lifeMu; Shutdown takes lifeMu alone.
	lifeMu   sync.RWMutex
	draining bool

	wg sync.WaitGroup
}

// NewManager starts the worker pool.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 64
	}
	if cfg.CacheSize < 1 {
		cfg.CacheSize = 128
	}
	if cfg.Shards < 1 {
		cfg.Shards = 8
	}
	if cfg.Run == nil {
		cfg.Run = Execute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	if cfg.Disk != nil {
		// The disk tier counts into the same metrics set as the memory
		// tier, so /metrics shows one coherent tiered store.
		cfg.Disk.SetMetrics(cfg.Metrics.Store)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		run:     cfg.Run,
		metrics: cfg.Metrics,
		disk:    cfg.Disk,
		breaker: cfg.Breaker,
		workers: cfg.Workers,
		baseCtx: ctx,
		cancel:  cancel,
		shards:  make([]shard, cfg.Shards),
		queue:   make(chan *Job, cfg.QueueSize),
	}
	// Split the cache bound across shards, rounding up so the configured
	// capacity is never undershot.
	perShard := (cfg.CacheSize + cfg.Shards - 1) / cfg.Shards
	for i := range m.shards {
		m.shards[i].jobs = make(map[string]*Job)
		m.shards[i].cache = store.NewLRU(perShard)
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// shardFor maps a digest to its partition. Digests are uniform SHA-256
// hex, but fnv keeps the mapping well-distributed for any test-injected
// ID shape.
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &m.shards[h.Sum32()%uint32(len(m.shards))]
}

// Metrics exposes the manager's counters for the /metrics handler.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Breaker exposes the execute-stage circuit breaker (nil when disabled)
// for the /metrics handler.
func (m *Manager) Breaker() *policy.Breaker { return m.breaker }

// QueueDepth is the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// CacheLen is the number of terminal runs retained across the shard LRUs.
func (m *Manager) CacheLen() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.cache.Len()
		sh.mu.Unlock()
	}
	return n
}

// Job looks up a run by digest.
func (m *Manager) Job(id string) (*Job, bool) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.jobs[id]
	return j, ok
}

// QueuePosition returns how many jobs are ahead of id in the submission
// queue (0 = next to run), or -1 when the job is unknown or no longer
// queued. Position is derived from submission order, so it only ever
// shrinks as the pool drains: shards are scanned one at a time, and a job
// observed as no-longer-queued in a later scan can only lower the count
// (queued → running is a one-way door).
func (m *Manager) QueuePosition(id string) int {
	j, ok := m.Job(id)
	if !ok || j.Snapshot().State != StateQueued {
		return -1
	}
	pos := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, other := range sh.jobs {
			if other != j && other.seq < j.seq && other.Snapshot().State == StateQueued {
				pos++
			}
		}
		sh.mu.Unlock()
	}
	return pos
}

// Submit routes one normalized request: identical to a cached terminal run
// → that run (LRU refreshed); identical to a queued/running run → that run
// (singleflight dedup); persisted by an earlier process → a terminal job
// restored from the disk store; otherwise a fresh job, unless the queue is
// full (ErrQueueFull) or the manager is draining (ErrDraining).
func (m *Manager) Submit(req RunRequest) (*Job, SubmitOutcome, error) {
	id := req.Digest()
	sh := m.shardFor(id)
	sh.mu.Lock()
	if j, outcome, hit := m.lookupLocked(sh, id); hit {
		sh.mu.Unlock()
		return j, outcome, nil
	}
	m.metrics.Store.MemoryMisses.Add(1)
	sh.mu.Unlock()

	// Disk tier, outside the shard mutex: reading an entry is file I/O
	// and must not stall status polls. Serving a persisted result is not
	// new work, so it is allowed even while draining.
	if res, ok := run.LoadDisk(m.disk, id); ok {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if j, outcome, hit := m.lookupLocked(sh, id); hit {
			// Raced with an identical submission; defer to its job.
			return j, outcome, nil
		}
		return m.installTerminalLocked(sh, id, req, res), SubmitCachedDisk, nil
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if j, outcome, hit := m.lookupLocked(sh, id); hit {
		// Raced with an identical submission while we checked the disk.
		return j, outcome, nil
	}
	// The queue send happens under lifeMu (shared) so it can never race
	// Shutdown's close(queue).
	m.lifeMu.RLock()
	if m.draining {
		m.lifeMu.RUnlock()
		m.metrics.Rejected.Add(1)
		return nil, 0, ErrDraining
	}
	j := &Job{ID: id, Req: req, seq: m.seq.Add(1), state: StateQueued, submitted: time.Now(), done: make(chan struct{})}
	select {
	case m.queue <- j:
	default:
		m.lifeMu.RUnlock()
		m.metrics.Shed.Add(1)
		return nil, 0, ErrQueueFull
	}
	m.lifeMu.RUnlock()
	sh.jobs[id] = j
	m.metrics.Misses.Add(1)
	return j, SubmitNew, nil
}

// lookupLocked resolves a digest against the in-memory tier: a terminal
// job is a memory cache hit, a live one coalesces the submission. The
// caller holds sh's mutex.
func (m *Manager) lookupLocked(sh *shard, id string) (*Job, SubmitOutcome, bool) {
	j, ok := sh.jobs[id]
	if !ok {
		return nil, 0, false
	}
	if j.Snapshot().State.Terminal() {
		sh.cache.Bump(id)
		m.metrics.Store.MemoryHits.Add(1)
		return j, SubmitCached, true
	}
	m.metrics.DedupHits.Add(1)
	return j, SubmitDeduped, true
}

// installTerminalLocked enters a result restored from the disk store as a
// terminal job, so subsequent GETs and submissions see it as an ordinary
// cached run. The caller holds sh's mutex.
func (m *Manager) installTerminalLocked(sh *shard, id string, req RunRequest, res *RunResult) *Job {
	now := time.Now()
	j := &Job{
		ID: id, Req: req, seq: m.seq.Add(1), source: store.TierDisk,
		state: StateDone, result: res,
		submitted: now, started: now, finished: now,
		done: make(chan struct{}),
	}
	close(j.done)
	sh.jobs[id] = j
	m.addToCacheLocked(sh, id)
	return j
}

// addToCacheLocked enters a terminal digest into the shard's LRU; evicted
// digests drop out of the job map entirely, so a resubmission re-executes
// (or restores from disk). The caller holds sh's mutex.
func (m *Manager) addToCacheLocked(sh *shard, id string) {
	for _, evicted := range sh.cache.Add(id) {
		delete(sh.jobs, evicted)
		m.metrics.Store.MemoryEvictions.Add(1)
	}
}

// forget drops a job from its shard without touching the LRU — used for
// breaker fast-fails, which must leave no cached trace so the identical
// request re-executes once the stage recovers.
func (m *Manager) forget(id string) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	delete(sh.jobs, id)
	sh.mu.Unlock()
}

// worker drains the queue until it closes. Each job runs through
// runner.Map, which contributes two properties for free: a panicking
// experiment is captured as that job's error instead of killing the pool,
// and a cancelled base context (drain deadline) fails queued jobs without
// starting them.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	// The circuit breaker guards the execute stage only: cached results
	// and disk restores never pass through here. A fast-failed job is
	// forgotten (not cached), so clients polling its ID see it vanish and
	// a resubmission re-executes once the breaker admits traffic again.
	var breakerDone func(policy.Outcome)
	if m.breaker != nil {
		var berr error
		breakerDone, berr = m.breaker.Allow()
		if berr != nil {
			j.finish(StateFailed, nil, berr, time.Now())
			m.forget(j.ID)
			return
		}
	}

	start := time.Now()
	j.setRunning(start)
	m.metrics.InFlight.Add(1)
	ctx := m.baseCtx
	if j.Req.Optimize != nil {
		// OnProgress fires on the evaluating goroutine, one generation at
		// a time, so the previous-snapshot state needs no lock.
		var prev search.Progress
		ctx = run.WithProgress(ctx, func(p search.Progress) {
			m.metrics.ObserveOptimize(p, prev)
			prev = p
			j.setProgress(p)
		})
	}
	results, err := runner.Map(ctx, 1, []RunRequest{j.Req}, m.run)
	m.metrics.InFlight.Add(-1)
	elapsed := time.Since(start)
	policy.Observe(breakerDone, err)

	state := StateDone
	var res *RunResult
	switch {
	case err == nil:
		res = results[0]
		m.metrics.Completed.Add(1)
		m.metrics.ObserveLatency(j.Req.Kind(), elapsed.Seconds())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCancelled
		m.metrics.Cancelled.Add(1)
	default:
		state = StateFailed
		m.metrics.Failed.Add(1)
	}
	// Persist, then enter the LRU, then finish: whoever waits on done
	// must find the result on disk and any digest it evicts already gone
	// from memory, or a resubmission right after done could still be
	// served from the memory tier it has just left.
	if state == StateDone {
		j.mu.Lock()
		j.source = store.TierMemory
		j.mu.Unlock()
		// Persist the completed run so it survives restarts and memory
		// eviction. Best-effort: a full or lost volume costs persistence,
		// never the run.
		_ = run.SaveDisk(m.disk, j.ID, res)
	}

	// Enter the job into the LRU; evicted digests drop out of the job
	// map entirely, so a resubmission re-executes (or restores from
	// disk). Until finish below, a submission of this digest coalesces
	// onto the job as in flight.
	sh := m.shardFor(j.ID)
	sh.mu.Lock()
	m.addToCacheLocked(sh, j.ID)
	sh.mu.Unlock()

	j.finish(state, res, err, time.Now())
}

// Shutdown stops accepting new runs, lets the workers drain the queue, and
// waits for them until ctx expires. Past the deadline the base context is
// cancelled — queued jobs then fail fast with StateCancelled via
// runner.Map's dispatch check, and Shutdown returns ctx.Err() without
// waiting on any CPU-bound run already in flight (mirroring the bounded
// Shutdown of internal/rt). Shutdown is idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.lifeMu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.lifeMu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancel()
		return nil
	case <-ctx.Done():
		m.cancel()
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun (used by /healthz).
func (m *Manager) Draining() bool {
	m.lifeMu.RLock()
	defer m.lifeMu.RUnlock()
	return m.draining
}
