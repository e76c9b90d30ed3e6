package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/scenario"
)

// newTestServer mounts a Server with the given runner on httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Manager().Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (int, runStatus, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st runStatus
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// assertJSONError checks that a non-2xx response carries the uniform error
// body.
func assertJSONError(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("error response Content-Type = %q, want JSON", ct)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not the JSON error shape: %v", err)
	}
	if e.Error.Code != resp.StatusCode || e.Error.Message == "" {
		t.Errorf("error body = %+v, want code %d and a message", e, resp.StatusCode)
	}
}

func TestSubmitPollLifecycle(t *testing.T) {
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run})

	code, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	if st.ID == "" || st.Cached || st.Deduped {
		t.Fatalf("POST body = %+v, want fresh id", st)
	}
	job, ok := srv.Manager().Job(st.ID)
	if !ok {
		t.Fatal("submitted job not resolvable")
	}
	<-job.Done()

	var got runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK {
		t.Fatalf("GET status = %d, want 200", code)
	}
	if got.State != StateDone || got.Report == nil || got.Error != "" {
		t.Fatalf("GET body = %+v, want done with report", got)
	}
	if got.ElapsedMS < 0 {
		t.Errorf("elapsed_ms = %v, want >= 0", got.ElapsedMS)
	}

	// A second identical submission is a cache hit served with 200.
	code, st2, _ := postRun(t, ts, `{"experiment": "fig5", "seed": 1}`)
	if code != http.StatusOK || !st2.Cached || st2.ID != st.ID {
		t.Fatalf("cached POST = (%d, %+v), want 200 + cached + same id", code, st2)
	}
	if f.executions.Load() != 1 {
		t.Errorf("executions = %d, want 1", f.executions.Load())
	}
}

// TestFailedRunErrorText: a failed run's error is the run's own error, and
// a panicking run's is one line naming the panic value.
func TestFailedRunErrorText(t *testing.T) {
	run := func(_ context.Context, req RunRequest) (*RunResult, error) {
		if req.Seed == 1 {
			return nil, errors.New("run failed")
		}
		panic("boom")
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: run})
	for _, tc := range []struct{ body, want string }{
		{`{"experiment": "fig5", "seed": 1}`, "run failed"},
		{`{"experiment": "fig5", "seed": 2}`, "service: run panicked: boom"},
	} {
		code, st, _ := postRun(t, ts, tc.body)
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d, want 202", tc.body, code)
		}
		job, ok := srv.Manager().Job(st.ID)
		if !ok {
			t.Fatalf("POST %s: job not resolvable", tc.body)
		}
		<-job.Done()
		var got runStatus
		if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", st.ID, code)
		}
		if got.State != StateFailed || got.Error != tc.want {
			t.Errorf("run %s: state %s, error %q; want failed, %q", tc.body, got.State, got.Error, tc.want)
		}
	}
}

func TestHTTPSingleflight(t *testing.T) {
	f := newFakeRunner(true)
	srv, ts := newTestServer(t, Config{Workers: 2, QueueSize: 16, Run: f.Run})

	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			code, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
			if code != http.StatusAccepted {
				t.Errorf("POST %d status = %d, want 202", i, code)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(f.release)
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Errorf("submission %d got id %s, want %s", i, ids[i], ids[0])
		}
	}
	// The job may not have reached a worker yet: count executions only
	// once it is done.
	job, ok := srv.Manager().Job(ids[0])
	if !ok {
		t.Fatalf("job %s not resolvable", ids[0])
	}
	<-job.Done()
	if got := f.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want exactly 1", got)
	}
}

func TestOverloadSheds429(t *testing.T) {
	f := newFakeRunner(true)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: f.Run})

	code, stA, _ := postRun(t, ts, `{"experiment": "fig5", "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	<-f.started // the worker holds seed 1; the queue is free again
	if code, _, _ := postRun(t, ts, `{"experiment": "fig5", "seed": 2}`); code != http.StatusAccepted {
		t.Fatalf("second POST = %d, want 202", code)
	}
	// The burst overflows the bounded queue: shed, not wedged.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"experiment": "fig5", "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After")
	}
	assertJSONError(t, resp)

	// The server still answers while loaded.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz during overload = %d, want 200", code)
	}
	metrics := fetchMetrics(t, ts)
	if !strings.Contains(metrics, "hcperf_shed_total 1") {
		t.Errorf("metrics missing shed counter:\n%s", metrics)
	}

	close(f.release)
	job, _ := srv.Manager().Job(stA.ID)
	<-job.Done()
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestMetricsExposition(t *testing.T) {
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run})

	_, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()
	postRun(t, ts, `{"experiment": "fig5"}`) // cache hit

	metrics := fetchMetrics(t, ts)
	for _, want := range []string{
		"hcperf_queue_depth 0",
		"hcperf_cache_entries 1",
		`hcperf_store_hits_total{tier="memory"} 1`,
		"hcperf_cache_misses_total 1",
		"hcperf_runs_completed_total 1",
		`hcperf_run_duration_seconds_count{experiment="fig5"} 1`,
		`hcperf_run_duration_seconds_bucket{experiment="fig5",le="+Inf"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestErrorPathsReturnJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: newFakeRunner(false).Run})
	for _, tt := range []struct {
		name, method, path, body string
		want                     int
	}{
		{name: "malformed body", method: "POST", path: "/v1/runs", body: `{"experiment":`, want: http.StatusBadRequest},
		{name: "unknown field", method: "POST", path: "/v1/runs", body: `{"experiment": "fig5", "bogus": 1}`, want: http.StatusBadRequest},
		{name: "invalid request", method: "POST", path: "/v1/runs", body: `{}`, want: http.StatusBadRequest},
		{name: "unknown run", method: "GET", path: "/v1/runs/deadbeef", want: http.StatusNotFound},
		{name: "unknown trace", method: "GET", path: "/v1/runs/deadbeef/trace", want: http.StatusNotFound},
	} {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tt.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.want)
			}
			assertJSONError(t, resp)
		})
	}
}

func TestExperimentsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: newFakeRunner(false).Run})
	var got struct {
		Experiments []experiment.Info `json:"experiments"`
		Scenarios   []string          `json:"scenarios"`
	}
	if code := getJSON(t, ts.URL+"/v1/experiments", &got); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := experiment.List()
	if len(got.Experiments) != len(want) {
		t.Fatalf("listing has %d experiments, want %d", len(got.Experiments), len(want))
	}
	for i := range want {
		if got.Experiments[i] != want[i] {
			t.Errorf("listing[%d] = %+v, want %+v", i, got.Experiments[i], want[i])
		}
	}
	if len(got.Scenarios) != len(scenario.ScenarioNames()) {
		t.Errorf("scenarios = %v, want all %d kinds", got.Scenarios, len(scenario.ScenarioNames()))
	}
	for i := 1; i < len(got.Scenarios); i++ {
		if got.Scenarios[i] < got.Scenarios[i-1] {
			t.Errorf("scenario listing not sorted: %v", got.Scenarios)
		}
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: newFakeRunner(false).Run})
	var got struct {
		Module string `json:"module"`
		Go     string `json:"go"`
	}
	if code := getJSON(t, ts.URL+"/v1/version", &got); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Module == "" || !strings.HasPrefix(got.Go, "go") {
		t.Errorf("version = %+v, want module and toolchain", got)
	}
}

func TestHealthzDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: newFakeRunner(false).Run})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if err := srv.Manager().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	assertJSONError(t, resp)
	// Submissions during drain carry the same JSON error discipline.
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"experiment": "fig5"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	assertJSONError(t, resp)
}

// TestRealRunEndToEnd drives the real Execute path (no fake) through the
// API with the fast fig5 experiment and a short traced scenario: the demo
// the acceptance criteria name, in test form.
func TestRealRunEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})

	// Experiment run, submitted twice: one execution, second is a hit.
	code, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()
	code, st2, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("second POST = (%d, cached=%t), want 200 cached", code, st2.Cached)
	}
	var got runStatus
	getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got)
	if got.State != StateDone || got.Report == nil || len(got.Report.Rows) == 0 {
		t.Fatalf("run status = %+v, want done fig5 report", got)
	}
	if got.Digest == "" {
		t.Error("completed run has no report digest")
	}

	// Traced scenario run: trace endpoint serves both formats.
	code, sc, _ := postRun(t, ts, `{"scenario": "carfollow", "scheme": "edf", "duration": 2, "trace": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("scenario POST = %d, want 202", code)
	}
	scJob, _ := srv.Manager().Job(sc.ID)
	<-scJob.Done()
	for format, wantCT := range map[string]string{"csv": "text/csv", "chrome": "application/json"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/trace?format=%s", ts.URL, sc.ID, format))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s = %d, want 200", format, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, wantCT) {
			t.Errorf("trace %s Content-Type = %q, want %q", format, ct, wantCT)
		}
		if len(body) == 0 {
			t.Errorf("trace %s body empty", format)
		}
	}
	// The untraced experiment run has no lifecycle trace to serve.
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("experiment trace = %d, want 404", resp.StatusCode)
	}
	assertJSONError(t, resp)

	// Raw series ride along only when asked.
	var slim, full runStatus
	getJSON(t, ts.URL+"/v1/runs/"+sc.ID, &slim)
	getJSON(t, ts.URL+"/v1/runs/"+sc.ID+"?series=1", &full)
	if slim.Report == nil || len(slim.Report.Series) != 0 {
		t.Error("status without ?series=1 included raw series")
	}
	if full.Report == nil || len(full.Report.Series) == 0 {
		t.Error("status with ?series=1 carried no raw series")
	}
}
