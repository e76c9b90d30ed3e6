package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hcperf/internal/scenario"
	"hcperf/internal/search"
)

// tinyOptimizeBody is a fast real search: a 4-point space, 2 candidates of
// budget beyond the two baselines, 1 replica, 10 simulated seconds.
const tinyOptimizeBody = `{
  "spec": {"scenario": "carfollow", "duration": 10},
  "space": {
    "params": [{"name": "gamma_cap", "min": 0.01, "max": 0.04, "step": 0.01}],
    "schemes": ["hcperf"]
  },
  "strategy": "random",
  "budget": 3,
  "seeds": 1
}`

func postOptimize(t *testing.T, url, body string) (int, runStatus) {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize", "application/json", strings.NewReader(body))
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
	return resp.StatusCode, st
}

// TestOptimizeEndToEnd drives the real executor: submit, await, inspect the
// structured report, then assert the identical resubmission is served from
// cache.
func TestOptimizeEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	code, st := postOptimize(t, ts.URL, tinyOptimizeBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.Request.Optimize == nil {
		t.Fatal("status request has no optimize block")
	}
	if st.Submitted == "" {
		t.Error("status missing submitted timestamp")
	}

	job, ok := srv.Manager().Job(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("optimize job did not finish")
	}

	var got runStatus
	if code := getJSON(t, ts.URL+"/v1/optimize/"+st.ID, &got); code != http.StatusOK {
		t.Fatalf("get status = %d, want 200", code)
	}
	if got.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", got.State, got.Error)
	}
	if got.Optimize == nil {
		t.Fatal("done status has no optimize report")
	}
	if got.Optimize.Evaluated < 1 || got.Optimize.Evaluated > 3 {
		t.Fatalf("evaluated = %d, want 1..3", got.Optimize.Evaluated)
	}
	if len(got.Optimize.Front) == 0 || len(got.Optimize.Best) == 0 {
		t.Fatalf("report missing front/best: %+v", got.Optimize)
	}
	if got.Progress == nil || got.Progress.Evaluated != got.Optimize.Evaluated {
		t.Fatalf("final progress %+v does not match report (%d evaluated)", got.Progress, got.Optimize.Evaluated)
	}
	if got.Report == nil || got.Digest == "" {
		t.Fatal("optimize run missing rendered report/digest")
	}

	// Identical resubmission: served from cache with the same digest ID.
	code2, st2 := postOptimize(t, ts.URL, tinyOptimizeBody)
	if code2 != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit status = %d cached=%v, want 200 cached", code2, st2.Cached)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit ID %s != original %s", st2.ID, st.ID)
	}

	// /v1/runs sees the same job (shared digest namespace).
	var viaRuns runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &viaRuns); code != http.StatusOK {
		t.Fatalf("get via /v1/runs = %d, want 200", code)
	}

	// Metrics exposition carries the optimize counters and best gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"hcperf_optimize_candidates_total",
		"hcperf_optimize_generations_total",
		`hcperf_optimize_best{objective="err_p99"}`,
		`hcperf_store_hits_total{tier="memory"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestOptimizeRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Run: newFakeRunner(false).Run})
	for name, body := range map[string]string{
		"fleet template": `{"spec": {"scenario": "carfollow", "fleet": {"n": 2}}}`,
		"bad scenario":   `{"spec": {"scenario": "lanekeep"}}`,
		"bad strategy":   `{"spec": {"scenario": "carfollow"}, "strategy": "warp"}`,
		"unknown field":  `{"spec": {"scenario": "carfollow"}, "bogus": 1}`,
		"over budget":    `{"spec": {"scenario": "carfollow"}, "budget": 100000}`,
	} {
		code, _ := postOptimize(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	// optimize + scenario in one /v1/runs envelope violates exactly-one-of.
	code, _, _ := postRun(t, ts, `{"scenario": "carfollow", "optimize": {"spec": {"scenario": "carfollow"}}}`)
	if code != http.StatusBadRequest {
		t.Errorf("mixed kinds: status = %d, want 400", code)
	}
	// optimize runs reject request-level scheme/seed/duration/trace.
	code, _, _ = postRun(t, ts, `{"optimize": {"spec": {"scenario": "carfollow"}}, "seed": 7}`)
	if code != http.StatusBadRequest {
		t.Errorf("request-level seed: status = %d, want 400", code)
	}
}

// TestOptimizeDigestStable pins the request-normalization contract: two
// spellings of the same search (explicit defaults vs empty) share a digest,
// and changing the budget changes it.
func TestOptimizeDigestStable(t *testing.T) {
	base := search.Request{Spec: scenario.Spec{Scenario: "carfollow"}}
	explicit := search.Request{
		Spec:     scenario.Spec{Scenario: "carfollow"},
		Strategy: search.StrategyEvolve,
		Budget:   search.DefaultBudget,
		Seeds:    search.DefaultSeeds,
		Seed:     1,
	}
	d1 := mustDigest(t, RunRequest{Optimize: &base})
	d2 := mustDigest(t, RunRequest{Optimize: &explicit})
	if d1 != d2 {
		t.Fatalf("equivalent optimize requests digest differently: %s vs %s", d1, d2)
	}
	bigger := search.Request{Spec: scenario.Spec{Scenario: "carfollow"}, Budget: 32}
	if d3 := mustDigest(t, RunRequest{Optimize: &bigger}); d3 == d1 {
		t.Fatal("different budgets share a digest")
	}
}

func mustDigest(t *testing.T, r RunRequest) string {
	t.Helper()
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n.Digest()
}
