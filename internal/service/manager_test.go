package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hcperf/internal/experiment"
)

// fakeRunner is a controllable RunFunc: every execution signals started,
// then blocks until Release (or runs straight through if unblocked). It
// counts executions so the singleflight tests can assert "exactly once".
type fakeRunner struct {
	executions atomic.Int64
	started    chan string   // receives the request kind as runs begin
	release    chan struct{} // closed to let blocked runs finish
	blocking   bool
}

func newFakeRunner(blocking bool) *fakeRunner {
	return &fakeRunner{
		started:  make(chan string, 64),
		release:  make(chan struct{}),
		blocking: blocking,
	}
}

func (f *fakeRunner) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	f.executions.Add(1)
	f.started <- req.Kind()
	if f.blocking {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &RunResult{Report: &experiment.Report{ID: req.Kind(), Title: "fake", Header: []string{"k", "v"}, Rows: [][]string{{"seed", "1"}}}}, nil
}

func expReq(t *testing.T, seed int64) RunRequest {
	t.Helper()
	req, err := RunRequest{Experiment: "fig5", Seed: seed}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func waitDone(t *testing.T, j *Job) JobSnapshot {
	t.Helper()
	<-j.Done()
	return j.Snapshot()
}

func TestSingleflightConcurrentSubmissions(t *testing.T) {
	f := newFakeRunner(true)
	m := NewManager(Config{Workers: 2, QueueSize: 16, Run: f.Run})
	defer m.Shutdown(context.Background())

	req := expReq(t, 1)
	const n = 8
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs = make(map[*Job]int)
		newN atomic.Int64
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			j, outcome, err := m.Submit(req)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if outcome == SubmitNew {
				newN.Add(1)
			}
			mu.Lock()
			jobs[j]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := newN.Load(); got != 1 {
		t.Errorf("SubmitNew count = %d, want 1", got)
	}
	if len(jobs) != 1 {
		t.Errorf("distinct jobs = %d, want 1 (singleflight)", len(jobs))
	}
	close(f.release)
	for j := range jobs {
		if snap := waitDone(t, j); snap.State != StateDone {
			t.Errorf("state = %s, want done", snap.State)
		}
	}
	if got := f.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want exactly 1", got)
	}
	if hits := m.Metrics().DedupHits.Load(); hits != n-1 {
		t.Errorf("dedup hits = %d, want %d", hits, n-1)
	}
}

func TestCacheHitServesCompletedRun(t *testing.T) {
	f := newFakeRunner(false)
	m := NewManager(Config{Workers: 1, QueueSize: 4, Run: f.Run})
	defer m.Shutdown(context.Background())

	req := expReq(t, 1)
	j1, outcome, err := m.Submit(req)
	if err != nil || outcome != SubmitNew {
		t.Fatalf("first Submit: outcome=%v err=%v", outcome, err)
	}
	waitDone(t, j1)

	j2, outcome, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitCached {
		t.Errorf("second Submit outcome = %v, want SubmitCached", outcome)
	}
	if j2 != j1 {
		t.Error("cached submission returned a different job")
	}
	if got := f.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	if hits := m.Metrics().Store.MemoryHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func TestLRUEvictionRespectsBound(t *testing.T) {
	f := newFakeRunner(false)
	m := NewManager(Config{Workers: 1, QueueSize: 8, CacheSize: 2, Run: f.Run})
	defer m.Shutdown(context.Background())

	reqs := []RunRequest{expReq(t, 1), expReq(t, 2), expReq(t, 3)}
	for _, req := range reqs {
		j, _, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if n := m.CacheLen(); n != 2 {
		t.Errorf("CacheLen = %d, want 2", n)
	}
	if _, ok := m.Job(reqs[0].Digest()); ok {
		t.Error("oldest run still resolvable; want evicted")
	}
	for _, req := range reqs[1:] {
		if _, ok := m.Job(req.Digest()); !ok {
			t.Errorf("run %s evicted; want retained", req.Digest()[:8])
		}
	}
	// Resubmitting the evicted run re-executes it.
	j, outcome, err := m.Submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitNew {
		t.Errorf("resubmit outcome = %v, want SubmitNew", outcome)
	}
	waitDone(t, j)
	if got := f.executions.Load(); got != 4 {
		t.Errorf("executions = %d, want 4 (3 distinct + 1 re-run after eviction)", got)
	}
}

func TestLRUBumpOnCacheHit(t *testing.T) {
	f := newFakeRunner(false)
	m := NewManager(Config{Workers: 1, QueueSize: 8, CacheSize: 2, Run: f.Run})
	defer m.Shutdown(context.Background())

	a, b, c := expReq(t, 1), expReq(t, 2), expReq(t, 3)
	for _, req := range []RunRequest{a, b} {
		j, _, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	// Touch a so b becomes the LRU victim when c lands.
	if _, outcome, err := m.Submit(a); err != nil || outcome != SubmitCached {
		t.Fatalf("bump submit: outcome=%v err=%v", outcome, err)
	}
	j, _, err := m.Submit(c)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, ok := m.Job(a.Digest()); !ok {
		t.Error("recently-used run evicted; want retained")
	}
	if _, ok := m.Job(b.Digest()); ok {
		t.Error("least-recently-used run retained; want evicted")
	}
}

// TestCacheSizeIsExact: the memory tier keeps exactly CacheSize terminal
// runs, the most recent ones, for any bound.
func TestCacheSizeIsExact(t *testing.T) {
	run := func(_ context.Context, req RunRequest) (*RunResult, error) {
		return &RunResult{Report: &experiment.Report{ID: req.Kind()}}, nil
	}
	for _, size := range []int{1, 3, 100} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, CacheSize: size, Run: run})
			m := srv.Manager()
			reqs := make([]RunRequest, 2*size+8)
			for i := range reqs {
				reqs[i] = expReq(t, int64(i+1))
				j, _, err := m.Submit(reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, j)
			}
			if got := m.CacheLen(); got != size {
				t.Errorf("CacheLen = %d, want %d", got, size)
			}
			if want := fmt.Sprintf("hcperf_cache_entries %d\n", size); !strings.Contains(fetchMetrics(t, ts), want) {
				t.Errorf("metrics missing %q", want)
			}
			for i, req := range reqs {
				want := i >= len(reqs)-size
				if _, ok := m.Job(req.Digest()); ok != want {
					t.Errorf("run %d of %d resident = %v, want %v", i+1, len(reqs), ok, want)
				}
			}
		})
	}
}

func TestQueueFullSheds(t *testing.T) {
	f := newFakeRunner(true)
	m := NewManager(Config{Workers: 1, QueueSize: 1, Run: f.Run})
	defer m.Shutdown(context.Background())

	// A occupies the single worker...
	jA, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-f.started // A is running, queue is empty again
	// ...B fills the queue...
	if _, _, err := m.Submit(expReq(t, 2)); err != nil {
		t.Fatal(err)
	}
	// ...so C must be shed.
	_, _, err = m.Submit(expReq(t, 3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit err = %v, want ErrQueueFull", err)
	}
	if shed := m.Metrics().Shed.Load(); shed != 1 {
		t.Errorf("shed = %d, want 1", shed)
	}
	// The shed job left no residue: resubmitting after capacity frees is a
	// fresh run, and the manager is not wedged.
	close(f.release)
	waitDone(t, jA)
	j, outcome, err := m.Submit(expReq(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitNew {
		t.Errorf("resubmit outcome = %v, want SubmitNew", outcome)
	}
	waitDone(t, j)
}

func TestShutdownDrainsInFlight(t *testing.T) {
	f := newFakeRunner(true)
	m := NewManager(Config{Workers: 1, QueueSize: 4, Run: f.Run})

	jA, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-f.started
	jB, _, err := m.Submit(expReq(t, 2)) // still queued behind A
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- m.Shutdown(context.Background()) }()

	// New work is refused once the drain flag is up; spin (no sleeps)
	// until the concurrent Shutdown has set it.
	for !m.Draining() {
		runtime.Gosched()
	}
	if _, _, err := m.Submit(expReq(t, 3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain err = %v, want ErrDraining", err)
	}

	close(f.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if snap := jA.Snapshot(); snap.State != StateDone {
		t.Errorf("in-flight job state = %s, want done", snap.State)
	}
	if snap := jB.Snapshot(); snap.State != StateDone {
		t.Errorf("queued job state = %s, want done (drained)", snap.State)
	}
}

func TestShutdownDeadlineCancelsQueued(t *testing.T) {
	f := newFakeRunner(true)
	m := NewManager(Config{Workers: 1, QueueSize: 4, Run: f.Run})

	jA, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-f.started
	jB, _, err := m.Submit(expReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already passed
	if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v, want context.Canceled", err)
	}

	// The blocked run observes the cancelled base context and aborts;
	// the queued job is failed fast without ever starting.
	if snap := waitDone(t, jA); snap.State != StateCancelled {
		t.Errorf("in-flight job state = %s, want cancelled", snap.State)
	}
	if snap := waitDone(t, jB); snap.State != StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", snap.State)
	}
	if f.executions.Load() != 1 {
		t.Errorf("executions = %d, want 1 (queued job must not start past deadline)", f.executions.Load())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueSize: 1, Run: newFakeRunner(false).Run})
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(expReq(t, 1)); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after shutdown err = %v, want ErrDraining", err)
	}
}

func TestPanickingRunIsolated(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueSize: 4, Run: func(context.Context, RunRequest) (*RunResult, error) {
		panic("boom")
	}})
	defer m.Shutdown(context.Background())
	j, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.State != StateFailed {
		t.Errorf("state = %s, want failed", snap.State)
	}
	if snap.Err == nil {
		t.Error("panicking run reported no error")
	}
	// The worker survived: a second job still executes.
	j2, _, err := m.Submit(expReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, j2); snap.State != StateFailed {
		t.Errorf("second job state = %s, want failed (same panicking runner)", snap.State)
	}
}
