// Package service turns the run pipeline (internal/run) into an online
// HTTP/JSON API: a bounded job queue worked by a fixed pool of workers, a
// tiered content-addressed result store (an in-memory LRU over an optional
// disk store, internal/store) with singleflight-style deduplication of
// identical submissions, a batch sweep endpoint that fans a spec template
// across a parameter grid, a resilience layer (internal/policy: per-client
// rate limiting with honest Retry-After and a circuit breaker guarding the
// execute stage), load shedding with 429 + Retry-After under overload, live
// Prometheus metrics, and a deadline-bounded graceful drain mirroring the
// shutdown discipline of internal/rt. One mutex covers the job map, the
// memory LRU and queue admission. Determinism of the underlying
// simulations (enforced by the internal/runner harness) is what makes
// serving a cached Report for a request digest correct: equal digests
// provably yield byte-identical reports.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"hcperf/internal/policy"
	"hcperf/internal/run"
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
	// counter under its mutex; queue position is the count of
	// still-queued jobs with a smaller seq.
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

	reqOnce sync.Once
	reqJSON []byte
	reqErr  error
}

// requestJSON returns the job's normalized request as the status body
// nests it, rendered on the first call and memoized for every later one.
func (j *Job) requestJSON() ([]byte, error) {
	j.reqOnce.Do(func() { j.reqJSON, j.reqErr = renderRequest(j.Req) })
	return j.reqJSON, j.reqErr
}

// renderRequest renders req as the status body nests it. Jobs and the
// request-body memo both render through it, so a job made from the memo
// answers with the bytes any other job would.
func renderRequest(req RunRequest) ([]byte, error) {
	return json.MarshalIndent(req, "  ", "  ")
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

// Server defaults: NewManager falls back to these for a zero Config field,
// and hcperf-serve's flags read them.
const (
	DefaultWorkers   = 4
	DefaultQueueSize = 64
	DefaultCacheSize = 128
)

// Manager owns the submission queue, the worker pool, and the
// content-addressed result cache. One mutex covers the job map, the LRU,
// the drain flag and the submission counter, so the singleflight
// invariant (at most one live job per digest) holds by construction and
// the LRU keeps exactly CacheSize terminal jobs in global recency order.
type Manager struct {
	run     RunFunc
	metrics *Metrics
	disk    *store.Disk     // nil = memory-only
	breaker *policy.Breaker // nil = unguarded
	workers int             // pool size, also each sweep's window of outstanding cells

	baseCtx context.Context
	cancel  context.CancelFunc
	queue   chan *Job

	// mu also orders every queue send before Shutdown's close(queue):
	// Submit sends (without blocking) and Shutdown closes under it.
	mu       sync.Mutex
	jobs     map[string]*Job // every known job, live or terminal
	cache    *store.LRU      // recency order over terminal jobs only
	draining bool
	seq      uint64 // submission counter; orders queue positions

	wg sync.WaitGroup
}

// NewManager starts the worker pool. Zero sizes take the Default*
// constants, a nil Run takes Execute, and the execute-stage breaker is
// built from cfg.Policy unless it sets NoBreaker.
func NewManager(cfg Config) *Manager {
	if cfg.Workers < 1 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.CacheSize < 1 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.Run == nil {
		cfg.Run = Execute
	}
	metrics := newMetrics()
	if cfg.Disk != nil {
		// The disk tier counts into the same metrics set as the memory
		// tier, so /metrics shows one coherent tiered store.
		cfg.Disk.SetMetrics(metrics.Store)
	}
	// The breaker is on by default: it guards the execute stage only, so
	// cache and dedup hits keep flowing even while it is open.
	var breaker *policy.Breaker
	if !cfg.Policy.NoBreaker {
		breaker = policy.NewBreaker(cfg.Policy.Breaker)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		run:     cfg.Run,
		metrics: metrics,
		disk:    cfg.Disk,
		breaker: breaker,
		workers: cfg.Workers,
		baseCtx: ctx,
		cancel:  cancel,
		queue:   make(chan *Job, cfg.QueueSize),
		jobs:    make(map[string]*Job),
		cache:   store.NewLRU(cfg.CacheSize),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Metrics exposes the manager's counters for the /metrics handler.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Breaker exposes the execute-stage circuit breaker (nil when disabled)
// for the /metrics handler.
func (m *Manager) Breaker() *policy.Breaker { return m.breaker }

// QueueDepth is the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// CacheLen is the number of terminal runs retained in the memory tier.
func (m *Manager) CacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.Len()
}

// Job looks up a run by digest.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// QueuePosition returns how many jobs are ahead of id in the submission
// queue (0 = next to run), or -1 when the job is unknown or no longer
// queued. Position is derived from submission order, so it only ever
// shrinks as the pool drains (queued → running is a one-way door).
func (m *Manager) QueuePosition(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.Snapshot().State != StateQueued {
		return -1
	}
	pos := 0
	for _, other := range m.jobs {
		if other.seq < j.seq && other.Snapshot().State == StateQueued {
			pos++
		}
	}
	return pos
}

// Submit routes one normalized request: identical to a cached terminal run
// → that run (LRU refreshed); identical to a queued/running run → that run
// (singleflight dedup); persisted by an earlier process → a terminal job
// restored from the disk store; otherwise a fresh job, unless the queue is
// full (ErrQueueFull) or the manager is draining (ErrDraining). Submit
// digests req; the server's handlers hold the digest already and route
// through submit, the one path behind it.
func (m *Manager) Submit(req RunRequest) (*Job, SubmitOutcome, error) {
	return m.submit(&submission{req: req, id: req.Digest()})
}

func (m *Manager) submit(sub *submission) (*Job, SubmitOutcome, error) {
	id := sub.id
	m.mu.Lock()
	if j, outcome, hit := m.lookupLocked(id); hit {
		m.mu.Unlock()
		return j, outcome, nil
	}
	m.metrics.Store.MemoryMisses.Add(1)
	m.mu.Unlock()

	// Disk tier, outside the mutex: reading an entry is file I/O and must
	// not stall status polls. Serving a persisted result is not new work,
	// so it is allowed even while draining.
	res, onDisk := run.LoadDisk(m.disk, id)

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, outcome, hit := m.lookupLocked(id); hit {
		// Raced with an identical submission while we checked the disk.
		return j, outcome, nil
	}
	if onDisk {
		return m.installTerminalLocked(sub, res), SubmitCachedDisk, nil
	}
	if m.draining {
		m.metrics.Rejected.Add(1)
		return nil, 0, ErrDraining
	}
	m.seq++
	j := newJob(sub, StateQueued)
	j.seq = m.seq
	select {
	case m.queue <- j:
	default:
		m.metrics.Shed.Add(1)
		return nil, 0, ErrQueueFull
	}
	m.jobs[id] = j
	m.metrics.Misses.Add(1)
	return j, SubmitNew, nil
}

// lookupLocked resolves a digest against the in-memory tier: a terminal
// job is a memory cache hit, a live one coalesces the submission. The
// caller holds m.mu.
func (m *Manager) lookupLocked(id string) (*Job, SubmitOutcome, bool) {
	j, ok := m.jobs[id]
	if !ok {
		return nil, 0, false
	}
	if j.Snapshot().State.Terminal() {
		m.cache.Bump(id)
		m.metrics.Store.MemoryHits.Add(1)
		return j, SubmitCached, true
	}
	m.metrics.DedupHits.Add(1)
	return j, SubmitDeduped, true
}

// installTerminalLocked enters a result restored from the disk store as a
// terminal job, so subsequent GETs and submissions see it as an ordinary
// cached run. The caller holds m.mu.
func (m *Manager) installTerminalLocked(sub *submission, res *RunResult) *Job {
	j := newJob(sub, StateDone)
	j.source, j.result = store.TierDisk, res
	j.started, j.finished = j.submitted, j.submitted
	close(j.done)
	m.jobs[j.ID] = j
	m.addToCacheLocked(j.ID)
	return j
}

// newJob makes the job of a submission, submitted now, holding the
// submission's rendered request when it has one.
func newJob(sub *submission, state JobState) *Job {
	j := &Job{ID: sub.id, Req: sub.req, state: state, submitted: time.Now(), done: make(chan struct{})}
	if sub.request != nil {
		j.reqOnce.Do(func() { j.reqJSON = sub.request })
	}
	return j
}

// addToCacheLocked enters a terminal digest into the LRU; evicted digests
// drop out of the job map entirely, so a resubmission re-executes (or
// restores from disk). The caller holds m.mu.
func (m *Manager) addToCacheLocked(id string) {
	for _, evicted := range m.cache.Add(id) {
		delete(m.jobs, evicted)
		m.metrics.Store.MemoryEvictions.Add(1)
	}
}

// forget drops a job from the map without touching the LRU — used for
// breaker fast-fails, which must leave no cached trace so the identical
// request re-executes once the stage recovers.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
}

// worker drains the queue until it closes.
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
	res, err := m.execute(ctx, j.Req)
	m.metrics.InFlight.Add(-1)
	elapsed := time.Since(start)
	policy.Observe(breakerDone, err)

	state := StateDone
	switch {
	case err == nil:
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
	m.mu.Lock()
	m.addToCacheLocked(j.ID)
	m.mu.Unlock()

	j.finish(state, res, err, time.Now())
}

// execute runs one request on the calling worker. A job dequeued after the
// drain deadline cancelled the base context fails without starting, and a
// panicking run fails its job instead of killing the worker.
func (m *Manager) execute(ctx context.Context, req RunRequest) (res *RunResult, err error) {
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: run panicked: %v", r)
		}
	}()
	return m.run(ctx, req)
}

// Shutdown stops accepting new runs, lets the workers drain the queue, and
// waits for them until ctx expires. Past the deadline the base context is
// cancelled — queued jobs then fail fast with StateCancelled without
// starting, and Shutdown returns ctx.Err() without waiting on any
// CPU-bound run already in flight (mirroring the bounded Shutdown of
// internal/rt). Shutdown is idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()

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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
