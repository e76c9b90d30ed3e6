package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistBucketIndexMonotoneAndBounded(t *testing.T) {
	// Powers of two and their neighbours are the octave boundaries where
	// index math goes wrong first.
	var values []uint64
	for shift := 0; shift < 63; shift++ {
		values = append(values, 1<<shift-1, 1<<shift, 1<<shift+1)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	last := -1
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histSlots {
			t.Fatalf("bucketIndex(%d) = %d out of [0, %d)", v, idx, histSlots)
		}
		if idx < last {
			t.Fatalf("bucketIndex(%d) = %d < previous %d; must be monotone", v, idx, last)
		}
		last = idx
	}
}

func TestHistBucketRelativeError(t *testing.T) {
	// Every value's bucket midpoint is within ~3.2% (one part in 32, plus
	// the half-bucket rounding) of the value itself.
	for _, v := range []uint64{1, 31, 32, 33, 100, 999, 1000, 12345, 1 << 20, 1<<40 + 12345} {
		mid := bucketMid(bucketIndex(v))
		if rel := math.Abs(float64(mid)-float64(v)) / float64(v); rel > 1.0/32+0.001 {
			t.Errorf("value %d -> midpoint %d, relative error %.4f > 1/32", v, mid, rel)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1..1000 µs, uniformly: p50 ≈ 500µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if n := h.Count(); n != 1000 {
		t.Fatalf("Count = %d, want 1000", n)
	}
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := h.Quantile(q)
		tol := time.Duration(float64(want) / 16) // two bucket widths
		if got < want-tol || got > want+tol {
			t.Errorf("Quantile(%g) = %v, want %v ± %v", q, got, want, tol)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.95, 950*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	if max := h.Max(); max != time.Millisecond {
		t.Errorf("Max = %v, want 1ms (exact, not bucketed)", max)
	}
	if mean := h.Mean(); mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", mean)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Record(time.Millisecond)
		b.Record(10 * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if p50 := a.Quantile(0.5); p50 > 2*time.Millisecond {
		t.Errorf("merged p50 = %v, want ~1ms", p50)
	}
	if max := a.Max(); max != 10*time.Millisecond {
		t.Errorf("merged max = %v, want 10ms", max)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP hcperf_queue_depth Jobs waiting.
# TYPE hcperf_queue_depth gauge
hcperf_queue_depth 3
hcperf_runs_completed_total 42
hcperf_store_hits_total{tier="memory"} 7
garbage line without value
`
	snap := parseMetrics(bufio.NewScanner(strings.NewReader(text)))
	if snap["hcperf_queue_depth"] != 3 || snap["hcperf_runs_completed_total"] != 42 {
		t.Errorf("snapshot = %v, want queue_depth 3 and completed 42", snap)
	}
	if snap[`hcperf_store_hits_total{tier="memory"}`] != 7 {
		t.Errorf("labeled metric not parsed verbatim: %v", snap)
	}
}

func TestServerDelta(t *testing.T) {
	before := Snapshot{
		"hcperf_runs_completed_total": 10, `hcperf_store_hits_total{tier="memory"}`: 5,
		"hcperf_dedup_hits_total": 1, "hcperf_cache_misses_total": 4, "hcperf_shed_total": 0,
	}
	after := Snapshot{
		"hcperf_runs_completed_total": 30, `hcperf_store_hits_total{tier="memory"}`: 65,
		"hcperf_dedup_hits_total": 11, "hcperf_cache_misses_total": 24, "hcperf_shed_total": 10,
	}
	d := serverDelta(before, after, 10*time.Second)
	if d.RunsPerSec != 2 {
		t.Errorf("RunsPerSec = %g, want 2", d.RunsPerSec)
	}
	// Window deltas: hits 60+10, misses 20 → hit ratio 70/90.
	if want := 70.0 / 90.0; math.Abs(d.CacheHitRatio-want) > 1e-9 {
		t.Errorf("CacheHitRatio = %g, want %g", d.CacheHitRatio, want)
	}
	if want := 10.0 / 100.0; math.Abs(d.ShedRatio-want) > 1e-9 {
		t.Errorf("ShedRatio = %g, want %g", d.ShedRatio, want)
	}
	// Counters the server never exported (limiter off) read as zero.
	if d.RateLimited != 0 || d.BreakerOpens != 0 {
		t.Errorf("absent counters = (%g, %g), want zero deltas", d.RateLimited, d.BreakerOpens)
	}

	// Submissions answered from disk are hits, in both ratios'
	// denominators: 20 disk hits make hits 90 of 110 answered and the 10
	// shed one in 120 submissions.
	before[`hcperf_store_hits_total{tier="disk"}`] = 3
	after[`hcperf_store_hits_total{tier="disk"}`] = 23
	d = serverDelta(before, after, 10*time.Second)
	if want := 90.0 / 110.0; math.Abs(d.CacheHitRatio-want) > 1e-9 {
		t.Errorf("with disk hits: CacheHitRatio = %g, want %g", d.CacheHitRatio, want)
	}
	if want := 10.0 / 120.0; math.Abs(d.ShedRatio-want) > 1e-9 {
		t.Errorf("with disk hits: ShedRatio = %g, want %g", d.ShedRatio, want)
	}
}

func fptr(v float64) *float64 { return &v }

func TestThresholdsCheck(t *testing.T) {
	rep := &Report{AchievedRPS: 45, ErrorRatio: 0.02, RetryAfterViolations: 1}
	rep.Latency.P99MS = 120
	rep.Server = &ServerDelta{ShedRatio: 0.3, BreakerOpens: 2}

	pass := &Thresholds{MinRPS: fptr(40), MaxP99MS: fptr(200), MaxErrorRatio: fptr(0.05)}
	if v := pass.Check(rep); len(v) != 0 {
		t.Fatalf("passing thresholds produced violations: %v", v)
	}

	fail := &Thresholds{
		MinRPS: fptr(50), MaxP99MS: fptr(100), MaxErrorRatio: fptr(0.01),
		MaxShedRatio: fptr(0.1), MaxBreakerOpens: fptr(0), MaxRetryAfterViolations: fptr(0),
	}
	v := fail.Check(rep)
	if len(v) != 6 {
		t.Fatalf("violations = %d (%v), want all 6 bounds broken", len(v), v)
	}
	for _, viol := range v {
		if viol.String() == "" {
			t.Error("violation renders empty")
		}
	}

	// Server-side bounds with no scrape are violations, not silent skips.
	rep.Server = nil
	v = (&Thresholds{MaxShedRatio: fptr(0.1)}).Check(rep)
	if len(v) != 1 || !v[0].Unmeasured {
		t.Fatalf("scrape-less server bound = %v, want one unmeasured violation", v)
	}
}

// fakeServe mimics the two endpoints the load generator touches, with a
// controllable per-request delay and 429 behaviour.
type fakeServe struct {
	requests atomic.Int64
	limitAt  int64  // >0: 429 every request past this count
	retryHdr string // Retry-After value on 429s ("" = omit: a violation)
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	completed := func() int64 { return f.requests.Load() }
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		n := f.requests.Add(1)
		if f.limitAt > 0 && n > f.limitAt {
			if f.retryHdr != "" {
				w.Header().Set("Retry-After", f.retryHdr)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"x","state":"queued"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hcperf_runs_completed_total %d\nhcperf_cache_misses_total %d\n", completed(), completed())
	})
	return mux
}

func TestRunClosedLoopAgainstFake(t *testing.T) {
	f := &fakeServe{}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL: ts.URL, Concurrency: 4,
		Duration: 300 * time.Millisecond, Warmup: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.AchievedRPS == 0 {
		t.Fatalf("report = %+v, want nonzero closed-loop traffic", rep)
	}
	if rep.StatusCodes["202"] != rep.Requests {
		t.Errorf("status codes = %v, want all 202 over %d requests", rep.StatusCodes, rep.Requests)
	}
	if rep.ErrorRatio != 0 || rep.TransportErrors != 0 {
		t.Errorf("errors = (%g, %d), want none", rep.ErrorRatio, rep.TransportErrors)
	}
	if rep.Latency.Samples != rep.Requests {
		t.Errorf("latency samples = %d, want %d", rep.Latency.Samples, rep.Requests)
	}
	if rep.Server == nil {
		t.Fatal("server delta missing; scrape against the fake failed")
	}
	if rep.Server.RunsPerSec <= 0 {
		t.Errorf("server runs/sec = %g, want > 0", rep.Server.RunsPerSec)
	}
}

func TestRunOpenLoopPacesAndCountsViolations(t *testing.T) {
	// The fake sheds everything past the first 5 requests without a
	// Retry-After header: every measured 429 is a violation.
	f := &fakeServe{limitAt: 5, retryHdr: ""}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL: ts.URL, RPS: 100, Concurrency: 4,
		Duration: 500 * time.Millisecond, Warmup: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 rps over 0.5s: the pacer schedules ~50 slots; allow wide slack
	// for a loaded test machine, but the count must track the schedule,
	// not the worker count.
	if rep.Requests < 20 || rep.Requests > 60 {
		t.Errorf("open-loop requests = %d, want ~50 (schedule-driven)", rep.Requests)
	}
	if rep.Limited == 0 {
		t.Error("no 429s recorded against a shedding server")
	}
	if rep.RetryAfterViolations != rep.Limited {
		t.Errorf("violations = %d, want every one of the %d header-less 429s flagged",
			rep.RetryAfterViolations, rep.Limited)
	}
}

func TestRunHonestRetryAfterIsNoViolation(t *testing.T) {
	f := &fakeServe{limitAt: 1, retryHdr: "2"}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL: ts.URL, Concurrency: 2,
		Duration: 200 * time.Millisecond, Warmup: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Limited == 0 {
		t.Fatal("no 429s recorded")
	}
	if rep.RetryAfterViolations != 0 {
		t.Errorf("violations = %d on honest Retry-After headers, want 0", rep.RetryAfterViolations)
	}
}

func TestReadMixFileValidates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := dir + "/" + name
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `[{"name":"a","weight":2,"body":{"experiment":"fig5"}}]`)
	mix, err := ReadMixFile(good)
	if err != nil || len(mix) != 1 || mix[0].Weight != 2 {
		t.Fatalf("ReadMixFile = (%v, %v), want one entry", mix, err)
	}
	for name, content := range map[string]string{
		"empty.json":     `[]`,
		"badweight.json": `[{"name":"a","weight":0,"body":{}}]`,
		"nobody.json":    `[{"name":"a","weight":1}]`,
	} {
		if _, err := ReadMixFile(write(name, content)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
