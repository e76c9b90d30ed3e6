package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcperf/internal/policy"
)

// TestSingleflightDedupManyDigests: the job map preserves the singleflight
// invariant — at most one live execution per digest — for many digests at
// once, with concurrent duplicate submissions racing each other.
func TestSingleflightDedupManyDigests(t *testing.T) {
	f := newFakeRunner(true)
	m := NewManager(Config{Workers: 4, QueueSize: 64, Run: f.Run})
	defer m.Shutdown(context.Background())

	const digests, dups = 12, 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs = make(map[string]*Job) // digest -> the one job every duplicate saw
		newN atomic.Int64
	)
	wg.Add(digests * dups)
	for seed := 0; seed < digests; seed++ {
		req := expReq(t, int64(seed+1))
		for d := 0; d < dups; d++ {
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
				defer mu.Unlock()
				if prev, ok := jobs[j.ID]; ok && prev != j {
					t.Errorf("digest %s produced two distinct jobs", j.ID)
				}
				jobs[j.ID] = j
			}()
		}
	}
	wg.Wait()
	if got := newN.Load(); got != digests {
		t.Errorf("SubmitNew count = %d, want %d (one per digest)", got, digests)
	}
	if len(jobs) != digests {
		t.Errorf("distinct jobs = %d, want %d", len(jobs), digests)
	}
	close(f.release)
	for _, j := range jobs {
		if snap := waitDone(t, j); snap.State != StateDone {
			t.Errorf("state = %s, want done", snap.State)
		}
	}
	if got := f.executions.Load(); got != digests {
		t.Errorf("executions = %d, want exactly %d", got, digests)
	}
}

// gatedRunner runs one execution at a time: each run announces itself on
// started, then blocks until it receives a proceed token — so a test can
// drain the queue one job per release and observe queue positions between
// steps.
type gatedRunner struct {
	started chan string
	proceed chan struct{}
}

func (g *gatedRunner) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	g.started <- req.Kind()
	select {
	case <-g.proceed:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return newFakeRunner(false).Run(ctx, req)
}

// TestQueuePositionMonotone: every queued job's reported position matches
// its submission order and only ever shrinks as the single worker drains
// the queue.
func TestQueuePositionMonotone(t *testing.T) {
	g := &gatedRunner{started: make(chan string, 16), proceed: make(chan struct{})}
	m := NewManager(Config{Workers: 1, QueueSize: 16, Run: g.Run})
	defer func() {
		close(g.proceed) // let any still-blocked run finish before drain
		m.Shutdown(context.Background())
	}()

	const n = 6
	jobs := make([]*Job, n)
	for i := range jobs {
		j, outcome, err := m.Submit(expReq(t, int64(i+1)))
		if err != nil || outcome != SubmitNew {
			t.Fatalf("Submit %d = (%v, %v), want fresh", i, outcome, err)
		}
		jobs[i] = j
	}
	<-g.started // job 0 is running; 1..n-1 are queued

	last := make([]int, n)
	for i := 1; i < n; i++ {
		if last[i] = m.QueuePosition(jobs[i].ID); last[i] != i-1 {
			t.Fatalf("initial position of job %d = %d, want %d", i, last[i], i-1)
		}
	}
	// Drain one job per step; after each step every still-queued job's
	// position must have dropped by exactly one, never risen.
	for step := 1; step < n; step++ {
		g.proceed <- struct{}{} // finish the running job
		<-g.started             // the next job is now running
		for i := step + 1; i < n; i++ {
			pos := m.QueuePosition(jobs[i].ID)
			if pos > last[i] {
				t.Errorf("step %d: job %d position rose %d -> %d", step, i, last[i], pos)
			}
			if pos != i-step-1 {
				t.Errorf("step %d: job %d position = %d, want %d", step, i, pos, i-step-1)
			}
			last[i] = pos
		}
		if pos := m.QueuePosition(jobs[step].ID); pos != -1 {
			t.Errorf("step %d: running job still reports position %d, want -1", step, pos)
		}
	}
}

// TestRateLimitMiddleware: denials are 429 + honest Retry-After, every
// decision carries the X-RateLimit-* headers, keys are isolated, and the
// client's credential is never echoed back.
func TestRateLimitMiddleware(t *testing.T) {
	f := newFakeRunner(false)
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueSize: 8, Run: f.Run,
		Policy: PolicyConfig{RateLimit: 1, RateBurst: 2},
	})

	post := func(apiKey string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(`{"experiment":"fig5"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	const secret = "alice-super-secret-token"
	// Burst of 2: two requests pass, the third is shed.
	for i := 0; i < 2; i++ {
		resp := post(secret)
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("request %d rate-limited inside the burst", i)
		}
		if lim := resp.Header.Get("X-RateLimit-Limit"); lim != "1" {
			t.Errorf("X-RateLimit-Limit = %q, want \"1\"", lim)
		}
		if rem := resp.Header.Get("X-RateLimit-Remaining"); rem != fmt.Sprint(1-i) {
			t.Errorf("request %d: X-RateLimit-Remaining = %q, want %d", i, rem, 1-i)
		}
		resp.Body.Close()
	}
	resp := post(secret)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		// rate 1/s with an empty bucket refills one token in exactly 1s.
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if rem := resp.Header.Get("X-RateLimit-Remaining"); rem != "0" {
		t.Errorf("denied X-RateLimit-Remaining = %q, want \"0\"", rem)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), secret) {
		t.Error("429 body echoes the client credential")
	}

	// A different key owns a fresh bucket: alice's exhaustion cannot shed
	// bob's traffic.
	resp = post("bob-other-token")
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Error("distinct API key shed by another key's exhaustion")
	}
	resp.Body.Close()

	// GETs are never limited: status polls must keep working while the
	// client is being shed on submissions.
	for i := 0; i < 5; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz = %d under rate limiting, want 200", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestClientKeyPrecedence: Bearer token beats X-API-Key beats remote
// address, and credentialed keys are hashes, never the raw secret.
func TestClientKeyPrecedence(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", nil)
	req.RemoteAddr = "203.0.113.7:4711"
	if got := clientKey(req); got != "addr:203.0.113.7" {
		t.Errorf("anonymous key = %q, want the bare remote IP", got)
	}
	req.Header.Set("X-API-Key", "api-secret")
	apiKey := clientKey(req)
	if !strings.HasPrefix(apiKey, "apikey:") || strings.Contains(apiKey, "api-secret") {
		t.Errorf("X-API-Key key = %q; want a hash, never the secret", apiKey)
	}
	req.Header.Set("Authorization", "Bearer bearer-secret")
	bearer := clientKey(req)
	if !strings.HasPrefix(bearer, "bearer:") || strings.Contains(bearer, "bearer-secret") {
		t.Errorf("Bearer key = %q; want a hash, never the secret", bearer)
	}
	if bearer == apiKey {
		t.Error("Bearer and X-API-Key must key different buckets")
	}
}

// TestBreakerFastFailForgetsJob: once the execute stage trips the breaker,
// queued jobs fail fast with ErrBreakerOpen, leave no cached trace, and a
// resubmission is a fresh job — so recovery re-executes instead of serving
// the fast-fail from cache.
func TestBreakerFastFailForgetsJob(t *testing.T) {
	boom := errors.New("runner down")
	m := NewManager(Config{
		Workers: 1, QueueSize: 8,
		Run: func(context.Context, RunRequest) (*RunResult, error) { return nil, boom },
		// Trips at 50% over 2 samples; the hour-long cooldown pins the
		// breaker open for the rest of the test.
		Policy: PolicyConfig{Breaker: policy.BreakerConfig{MinRequests: 2, ErrorRate: 0.5, Cooldown: time.Hour}},
	})
	defer m.Shutdown(context.Background())

	// Two genuine failures trip the breaker.
	for seed := int64(1); seed <= 2; seed++ {
		j, _, err := m.Submit(expReq(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitDone(t, j); !errors.Is(snap.Err, boom) {
			t.Fatalf("err = %v, want the runner's error", snap.Err)
		}
	}
	if got := m.Breaker().State(); got != policy.BreakerOpen {
		t.Fatalf("breaker state = %v, want open after 2/2 failures", got)
	}

	// The next submission is admitted (the queue is upstream of the
	// breaker) but fast-fails at the execute stage.
	j, outcome, err := m.Submit(expReq(t, 3))
	if err != nil || outcome != SubmitNew {
		t.Fatalf("Submit = (%v, %v), want a fresh job", outcome, err)
	}
	if snap := waitDone(t, j); !errors.Is(snap.Err, policy.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", snap.Err)
	}
	if got := m.Breaker().ShortCircuits(); got < 1 {
		t.Errorf("ShortCircuits() = %d, want >= 1", got)
	}

	// The fast-fail left no trace: the job is gone and resubmitting is a
	// fresh execution attempt, not a cache hit on the failure.
	if _, ok := m.Job(j.ID); ok {
		t.Error("fast-failed job still resolvable; must be forgotten")
	}
	j2, outcome, err := m.Submit(expReq(t, 3))
	if err != nil || outcome != SubmitNew {
		t.Fatalf("resubmit = (%v, %v), want SubmitNew", outcome, err)
	}
	waitDone(t, j2)
}

// TestPolicyMetricsExposition: the limiter and breaker families appear in
// /metrics with live values; the limiter family is absent when disabled.
func TestPolicyMetricsExposition(t *testing.T) {
	f := newFakeRunner(false)
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueSize: 8, Run: f.Run,
		Policy: PolicyConfig{RateLimit: 1, RateBurst: 1},
	})

	// One allowed and one limited decision make the counters non-zero.
	for i := 0; i < 2; i++ {
		code, _, _ := postRun(t, ts, `{"experiment":"fig5"}`)
		want := http.StatusAccepted
		if i == 1 {
			want = http.StatusTooManyRequests
		}
		if code != want && !(i == 0 && code == http.StatusOK) {
			t.Fatalf("request %d status = %d, want %d", i, code, want)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"hcperf_ratelimit_allowed_total 1",
		"hcperf_ratelimit_limited_total 1",
		"hcperf_ratelimit_tracked_keys 1",
		"hcperf_breaker_state 0",
		"hcperf_breaker_opens_total 0",
		"hcperf_breaker_shortcircuit_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Without a limiter the family is omitted entirely, keeping the
	// exposition identical to pre-policy deployments.
	_, plain := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: newFakeRunner(false).Run})
	resp2, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(raw2), "hcperf_ratelimit_") {
		t.Error("limiter metrics exposed with rate limiting disabled")
	}
}
