package service

import (
	"context"
	"encoding/json"
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

	"hcperf/internal/store"
)

func TestSweepExpansionOrderAndParams(t *testing.T) {
	var sr SweepRequest
	body := `{
		"template": {"scenario": "carfollow"},
		"grid": {"seed": [1, 2], "duration": [1, 2]}
	}`
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	cells, err := expandSweep(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	// Axes iterate in sorted path order ("duration" before "seed"), first
	// axis slowest.
	wantParams := []string{
		"duration=1 seed=1",
		"duration=1 seed=2",
		"duration=2 seed=1",
		"duration=2 seed=2",
	}
	seen := make(map[string]int)
	for i, c := range cells {
		if got := fmtParams(c.Params); got != wantParams[i] {
			t.Errorf("cell %d params = %q, want %q", i, got, wantParams[i])
		}
		d := c.Req.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("cells %d and %d share a digest", prev, i)
		}
		seen[d] = i
		if c.Req.Spec == nil || c.Req.Spec.Scenario != "carfollow" {
			t.Errorf("cell %d is not a carfollow spec request", i)
		}
	}
}

func TestSweepExpansionRejectsBadInput(t *testing.T) {
	for _, tt := range []struct{ name, body, wantErr string }{
		{"no template", `{"grid": {"seed": [1]}}`, "template"},
		{"empty axis", `{"template": {"scenario": "carfollow"}, "grid": {"seed": []}}`, "no values"},
		{"unknown spec field", `{"template": {"scenario": "carfollow"}, "grid": {"sead": [1]}}`, "sead"},
		{"bad scenario", `{"template": {"scenario": "flying"}, "grid": {}}`, "flying"},
		{"oversize", fmt.Sprintf(`{"template": {"scenario": "carfollow"}, "grid": {"seed": [%s1000]}}`,
			strings.Repeat("1,", maxSweepCells)), "cells"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var sr SweepRequest
			if err := json.Unmarshal([]byte(tt.body), &sr); err != nil {
				t.Fatal(err)
			}
			_, err := expandSweep(sr)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("expandSweep err = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(strings.TrimSpace(body), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unparseable SSE line %q", line)
			}
		}
		if ev.name == "" || ev.data == "" {
			t.Fatalf("incomplete SSE block %q", block)
		}
		out = append(out, ev)
	}
	return out
}

func postSweep(t *testing.T, ts string, body string) (int, []sseEvent) {
	t.Helper()
	resp, err := http.Post(ts+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sweep Content-Type = %q, want text/event-stream", ct)
	}
	return resp.StatusCode, parseSSE(t, sb.String())
}

func TestSweepStreamsCellsInOrder(t *testing.T) {
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 4, QueueSize: 8, Run: f.Run})
	body := `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2, 3, 4, 5, 6]}}`

	code, events := postSweep(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200", code)
	}
	if len(events) != 8 { // sweep + 6 cells + done
		t.Fatalf("got %d events, want 8: %+v", len(events), events)
	}
	if events[0].name != "sweep" || events[len(events)-1].name != "done" {
		t.Fatalf("stream not framed by sweep/done: %+v", events)
	}
	var lastID string
	for i, ev := range events[1:7] {
		if ev.name != "cell" {
			t.Fatalf("event %d = %q, want cell", i+1, ev.name)
		}
		var cell sweepCellEvent
		if err := json.Unmarshal([]byte(ev.data), &cell); err != nil {
			t.Fatal(err)
		}
		// Despite 4 workers completing out of order, cells emit in index
		// order.
		if cell.Index != i || cell.Of != 6 {
			t.Errorf("cell %d has index %d of %d, want %d of 6", i, cell.Index, cell.Of, i)
		}
		if cell.State != StateDone || cell.Cache != store.TierMiss || cell.Error != "" {
			t.Errorf("cell %d = %+v, want done/miss", i, cell)
		}
		if cell.ID == "" || cell.ReportDigest == "" {
			t.Errorf("cell %d missing digests: %+v", i, cell)
		}
		lastID = cell.ID
	}
	var done sweepDoneEvent
	if err := json.Unmarshal([]byte(events[7].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Cells != 6 || done.Completed != 6 || done.Failed != 0 || done.CacheHits != 0 {
		t.Errorf("done = %+v, want 6 cells all completed, no hits", done)
	}
	if got := f.executions.Load(); got != 6 {
		t.Errorf("executions = %d, want 6", got)
	}

	// Sweep cells are ordinary runs: GET serves them, and the manager
	// counts them as cached.
	var st runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+lastID, &st); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("GET sweep cell = (%d, %+v), want 200/done", code, st)
	}
	if st.Cache != store.TierMemory {
		t.Errorf("sweep cell cache = %q, want memory", st.Cache)
	}

	// The identical sweep again: every cell is a memory hit, zero new
	// executions.
	_, events = postSweep(t, ts.URL, body)
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.CacheHits != 6 || done.Completed != 6 {
		t.Errorf("re-sweep done = %+v, want 6 cache hits", done)
	}
	if got := f.executions.Load(); got != 6 {
		t.Errorf("executions after re-sweep = %d, want still 6", got)
	}
	_ = srv
}

func TestSweepInvalidBodyIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: newFakeRunner(false).Run})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"template": {"scenario": "carfollow"}, "grid": {"bogus_field": [1]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid sweep = %d, want 400", resp.StatusCode)
	}
	assertJSONError(t, resp)
}

// decodeSweep splits a sweep stream into its cell events and its done
// event.
func decodeSweep(t *testing.T, events []sseEvent) ([]sweepCellEvent, sweepDoneEvent) {
	t.Helper()
	var cells []sweepCellEvent
	var done sweepDoneEvent
	for _, ev := range events {
		var err error
		switch ev.name {
		case "cell":
			var c sweepCellEvent
			err = json.Unmarshal([]byte(ev.data), &c)
			cells = append(cells, c)
		case "done":
			err = json.Unmarshal([]byte(ev.data), &done)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("sweep stream does not end with done: %+v", events)
	}
	return cells, done
}

// peakRunner holds each execution for a few milliseconds, so executions
// overlap, and records the most executions in flight at once.
type peakRunner struct {
	executions, cur, peak atomic.Int64
}

func (p *peakRunner) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	p.executions.Add(1)
	n := p.cur.Add(1)
	defer p.cur.Add(-1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(5 * time.Millisecond)
	return newFakeRunner(false).Run(ctx, req)
}

// TestConcurrentSweepsShareTheWorkers: sweep cells run on the manager's
// workers, so concurrent sweeps never execute more runs at once than the
// pool has workers.
func TestConcurrentSweepsShareTheWorkers(t *testing.T) {
	p := &peakRunner{}
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 16, Run: p.Run})
	bodies := make([]string, 3)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"template": {"scenario": "carfollow"}, "grid": {"seed": [%d, %d, %d, %d]}}`, 4*i+1, 4*i+2, 4*i+3, 4*i+4)
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			bodies[i] = string(raw)
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if _, done := decodeSweep(t, parseSSE(t, body)); done.Completed != 4 {
			t.Errorf("sweep %d done = %+v, want 4 completed", i, done)
		}
	}
	if peak := p.peak.Load(); peak > 2 {
		t.Errorf("%d executions ran at once on 2 workers", peak)
	}
	if got := p.executions.Load(); got != 12 {
		t.Errorf("executions = %d, want 12", got)
	}
}

// TestSweepCellCoalescesOntoInFlightRun: a cell identical to a single run
// still executing joins that run instead of executing again.
func TestSweepCellCoalescesOntoInFlightRun(t *testing.T) {
	f := newFakeRunner(true)
	srv, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, Run: f.Run})
	if code, _, _ := postRun(t, ts, `{"spec": {"scenario": "carfollow", "seed": 1}}`); code != http.StatusAccepted {
		t.Fatalf("single run = %d, want 202", code)
	}
	<-f.started
	// Release the run once the cell has coalesced onto it, or after a
	// bound, so a cell that executes on its own fails the test instead of
	// hanging it.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for srv.Manager().Metrics().DedupHits.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(f.release)
	}()
	_, events := postSweep(t, ts.URL, `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1]}}`)
	cells, done := decodeSweep(t, events)
	if done.Completed != 1 || cells[0].Cache != store.TierMiss || cells[0].ReportDigest == "" {
		t.Errorf("cell %+v, done %+v, want one completed miss", cells[0], done)
	}
	if got := f.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

// TestSweepCellsCountAsRuns: a cell execution is an ordinary run in the
// run counters and the duration histogram.
func TestSweepCellsCountAsRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, Run: newFakeRunner(false).Run})
	postSweep(t, ts.URL, `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2, 3]}}`)
	metrics := fetchMetrics(t, ts)
	for _, want := range []string{
		"hcperf_runs_completed_total 3",
		`hcperf_run_duration_seconds_count{experiment="spec:carfollow"} 3`,
		"hcperf_sweep_cells_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestFailedSweepCellStaysResident: a failed cell is kept like a failed
// single run, so the identical sweep reports it from memory, failed,
// without executing it again.
func TestFailedSweepCellStaysResident(t *testing.T) {
	var executions atomic.Int64
	run := func(ctx context.Context, req RunRequest) (*RunResult, error) {
		executions.Add(1)
		if req.Spec.Seed == 2 {
			return nil, errors.New("cell failed")
		}
		return newFakeRunner(false).Run(ctx, req)
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, Run: run})
	body := `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2, 3]}}`
	_, events := postSweep(t, ts.URL, body)
	cells, done := decodeSweep(t, events)
	if done.Completed != 2 || done.Failed != 1 || cells[1].State != StateFailed || !strings.Contains(cells[1].Error, "cell failed") {
		t.Fatalf("first sweep cell 1 = %+v, done %+v, want cell 1 failed", cells[1], done)
	}
	_, events = postSweep(t, ts.URL, body)
	cells, done = decodeSweep(t, events)
	if c := cells[1]; c.Cache != store.TierMemory || c.State != StateFailed || !strings.Contains(c.Error, "cell failed") {
		t.Errorf("re-sweep cell 1 = %+v, want the failure from memory", c)
	}
	if done.CacheHits != 3 || done.Failed != 1 {
		t.Errorf("re-sweep done = %+v, want 3 cache hits, 1 failed", done)
	}
	if got := executions.Load(); got != 3 {
		t.Errorf("executions = %d, want 3", got)
	}
}

// TestRefusedSweepCellFails: a cell the full queue refuses is a failed
// cell carrying the queue's error, and the sweep still ends with done.
func TestRefusedSweepCellFails(t *testing.T) {
	f := newFakeRunner(true)
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: f.Run})
	release := sync.OnceFunc(func() { close(f.release) })
	defer release()
	// A cell that executes instead of being refused blocks on the runner;
	// the timer bounds that failure.
	time.AfterFunc(10*time.Second, release)
	postRun(t, ts, `{"experiment": "fig5", "seed": 1}`) // occupies the worker
	<-f.started
	postRun(t, ts, `{"experiment": "fig5", "seed": 2}`) // fills the queue
	_, events := postSweep(t, ts.URL, `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1]}}`)
	cells, done := decodeSweep(t, events)
	if c := cells[0]; c.State != StateFailed || c.Error != ErrQueueFull.Error() || c.ID == "" {
		t.Errorf("cell = %+v, want failed with %q", c, ErrQueueFull)
	}
	if done.Failed != 1 {
		t.Errorf("done = %+v, want 1 failed", done)
	}
}

// TestSweepWindowFitsSmallQueue: a sweep keeps at most a worker's count of
// cells outstanding, so one worker and a one-slot queue still complete
// every cell.
func TestSweepWindowFitsSmallQueue(t *testing.T) {
	f := newFakeRunner(false)
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Run: f.Run})
	_, events := postSweep(t, ts.URL, `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2, 3, 4]}}`)
	if _, done := decodeSweep(t, events); done.Completed != 4 || done.Failed != 0 {
		t.Errorf("done = %+v, want 4 completed", done)
	}
	if got := f.executions.Load(); got != 4 {
		t.Errorf("executions = %d, want 4", got)
	}
}

// TestDisconnectedSweepSubmitsNothingMore: once the client goes away the
// sweep submits no further cells, and the cells already running finish and
// stay resident.
func TestDisconnectedSweepSubmitsNothingMore(t *testing.T) {
	f := newFakeRunner(true)
	srv, _ := newTestServer(t, Config{Workers: 2, QueueSize: 8, Run: f.Run})
	body := `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2, 3, 4]}}`
	var sr SweepRequest
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	cells, err := expandSweep(sr)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body)).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-f.started // the window of two cells is running
	<-f.started
	cancel()
	<-returned
	close(f.release)

	for i, c := range cells {
		j, ok := srv.Manager().Job(c.Req.Digest())
		if i >= 2 {
			if ok {
				t.Errorf("cell %d was submitted after the client went away", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("cell %d is not resident", i)
		}
		if snap := waitDone(t, j); snap.State != StateDone {
			t.Errorf("cell %d state = %s, want done", i, snap.State)
		}
	}
	if got := f.executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2", got)
	}
}
