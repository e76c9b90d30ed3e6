package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/search"
	"hcperf/internal/store"
	"hcperf/internal/trace"
)

// runStatus is the status body as a struct, the shape clients decode. With
// referenceStatus it is also the reference encoding of the body: what
// encoding/json writes for it is what appendStatus must write.
type runStatus struct {
	ID      string     `json:"id"`
	State   JobState   `json:"state"`
	Request RunRequest `json:"request"`
	Cached  bool       `json:"cached,omitempty"`
	Deduped bool       `json:"deduped,omitempty"`
	// Submitted is the enqueue timestamp (RFC 3339, UTC).
	Submitted string `json:"submitted,omitempty"`
	// QueuePosition is how many jobs are ahead of this one while it is
	// queued (0 = next to run); absent once it starts. A pointer so that
	// position zero still renders.
	QueuePosition *int    `json:"queue_position,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms,omitempty"`
	Digest        string  `json:"report_digest,omitempty"`
	// Cache is the result's provenance: "memory" when it was computed or
	// resident in this process, "disk" when it was restored from the
	// persistent store, "miss" on the submission response that scheduled
	// a fresh execution. Absent while the job is queued or running. The
	// same value rides in the X-HCPerf-Cache response header.
	Cache  store.Tier       `json:"cache,omitempty"`
	Report *experiment.View `json:"report,omitempty"`
	// Progress is the latest generation snapshot of a running optimize
	// job; Optimize is the structured search report once it completes.
	Progress *search.Progress `json:"progress,omitempty"`
	Optimize *search.Report   `json:"optimize,omitempty"`
	TraceLen int              `json:"trace_events,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// referenceStatus renders a status body the reference way: the runStatus
// of a snapshot, built field by field, through json.Encoder with
// SetIndent("", "  "). pos is the job's queue position (negative for
// none), outcome is nil for a GET, and series adds the samples.
func referenceStatus(snap JobSnapshot, pos int, outcome *SubmitOutcome, series bool) ([]byte, error) {
	st := runStatus{ID: snap.ID, State: snap.State, Request: snap.Req, Progress: snap.Progress}
	if !snap.Submitted.IsZero() {
		st.Submitted = snap.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if snap.State == StateQueued && pos >= 0 {
		st.QueuePosition = &pos
	}
	if !snap.Finished.IsZero() && !snap.Started.IsZero() {
		st.ElapsedMS = float64(snap.Finished.Sub(snap.Started)) / float64(time.Millisecond)
	}
	if snap.Err != nil {
		st.Error = snap.Err.Error()
	}
	if snap.Result != nil && snap.Result.Report != nil {
		st.Report = snap.Result.Report.View(series)
		if d, err := snap.Result.ReportDigest(); err == nil {
			st.Digest = d
		}
		st.Cache = snap.Source
		st.Optimize = snap.Result.Optimize
		st.TraceLen = len(snap.Result.Events)
	}
	if outcome != nil {
		st.Cached = *outcome == SubmitCached || *outcome == SubmitCachedDisk
		st.Deduped = *outcome == SubmitDeduped
		st.Cache = outcome.Tier()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(st)
	return buf.Bytes(), err
}

// send makes one request and returns its status code and body.
func send(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// bodyID is the id of a served status body.
func bodyID(t *testing.T, body []byte) string {
	t.Helper()
	var st runStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return st.ID
}

// matchesReference checks a served status body byte for byte against the
// reference rendering of its job's current snapshot.
func matchesReference(t *testing.T, srv *Server, label string, body []byte, outcome *SubmitOutcome, series bool) {
	t.Helper()
	id := bodyID(t, body)
	j, ok := srv.Manager().Job(id)
	if !ok {
		t.Fatalf("%s: job %s not resident", label, id)
	}
	snap := j.Snapshot()
	pos := -1
	if snap.State == StateQueued {
		pos = srv.Manager().QueuePosition(id)
	}
	want, err := referenceStatus(snap, pos, outcome, series)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s: status body differs from the reference encoding:\n got %s\nwant %s", label, body, want)
	}
}

// awaitBody waits until the job of a served status body is terminal.
func awaitBody(t *testing.T, srv *Server, body []byte) {
	t.Helper()
	j, ok := srv.Manager().Job(bodyID(t, body))
	if !ok {
		t.Fatal("submitted job not resident")
	}
	<-j.Done()
}

// outcomeOf points at a submission outcome for matchesReference.
func outcomeOf(o SubmitOutcome) *SubmitOutcome { return &o }

// TestStatusBodyMatchesReference: every kind of status body the server
// writes is byte for byte the reference encoding of its job: a fresh miss
// queued at position 0 (as answered and as polled), a dedup, a running
// job, a memory hit, ?series=1, a failed run and its memory hit, a traced
// run, a disk hit and ?series=1 of the restored result, a cancelled run
// and an optimize job with its progress.
func TestStatusBodyMatchesReference(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	gate, started := make(chan struct{}), make(chan struct{}, 4)
	runner := func(ctx context.Context, req RunRequest) (*RunResult, error) {
		switch req.Seed {
		case 1:
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case 2:
			return nil, errors.New(`run <failed> & "quoted"` + " \u2028\u2029 \xff")
		case 3:
			res, err := seriesRunner(6)(ctx, req)
			if err == nil {
				res.Events = make([]lifecycle.Event, 3)
			}
			return res, err
		}
		return seriesRunner(40)(ctx, req)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: runner, Disk: openServiceDisk(t, dir)})
	runs := ts.URL + "/v1/runs"
	seed := func(n int) string { return `{"experiment": "fig5", "seed": ` + string(rune('0'+n)) + `}` }

	_, first := send(t, http.MethodPost, runs, seed(1))
	<-started
	_, running := send(t, http.MethodGet, runs+"/"+bodyID(t, first), "")
	matchesReference(t, srv, "running", running, nil, false)
	_, miss := send(t, http.MethodPost, runs, seed(4))
	matchesReference(t, srv, "fresh miss", miss, outcomeOf(SubmitNew), false)
	if !bytes.Contains(miss, []byte(`"queue_position": 0`)) {
		t.Fatalf("fresh miss is not queued at position 0: %s", miss)
	}
	_, queued := send(t, http.MethodGet, runs+"/"+bodyID(t, miss), "")
	matchesReference(t, srv, "queued", queued, nil, false)
	_, dedup := send(t, http.MethodPost, runs, seed(4))
	matchesReference(t, srv, "dedup", dedup, outcomeOf(SubmitDeduped), false)
	close(gate)
	awaitBody(t, srv, first)
	awaitBody(t, srv, miss)

	_, hit := send(t, http.MethodPost, runs, seed(1))
	matchesReference(t, srv, "memory hit", hit, outcomeOf(SubmitCached), false)
	_, series := send(t, http.MethodGet, runs+"/"+bodyID(t, hit)+"?series=1", "")
	matchesReference(t, srv, "series", series, nil, true)

	_, failed := send(t, http.MethodPost, runs, seed(2))
	awaitBody(t, srv, failed)
	_, failed = send(t, http.MethodGet, runs+"/"+bodyID(t, failed), "")
	matchesReference(t, srv, "failed", failed, nil, false)
	_, failedHit := send(t, http.MethodPost, runs, seed(2))
	matchesReference(t, srv, "failed memory hit", failedHit, outcomeOf(SubmitCached), false)

	_, traced := send(t, http.MethodPost, runs, seed(3))
	awaitBody(t, srv, traced)
	_, traced = send(t, http.MethodGet, runs+"/"+bodyID(t, traced), "")
	matchesReference(t, srv, "traced", traced, nil, false)
	if !bytes.Contains(traced, []byte(`"trace_events": 3`)) {
		t.Errorf("traced run has no trace_events: %s", traced)
	}

	restarted, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: runner, Disk: openServiceDisk(t, dir)})
	_, disk := send(t, http.MethodPost, ts2.URL+"/v1/runs", seed(1))
	matchesReference(t, restarted, "disk hit", disk, outcomeOf(SubmitCachedDisk), false)
	_, diskSeries := send(t, http.MethodGet, ts2.URL+"/v1/runs/"+bodyID(t, disk)+"?series=1", "")
	matchesReference(t, restarted, "disk series", diskSeries, nil, true)

	blocked := newFakeRunner(true)
	draining, ts3 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: blocked.Run})
	send(t, http.MethodPost, ts3.URL+"/v1/runs", seed(1))
	<-blocked.started
	_, cancelled := send(t, http.MethodPost, ts3.URL+"/v1/runs", seed(2))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = draining.Manager().Shutdown(expired)
	awaitBody(t, draining, cancelled)
	_, cancelled = send(t, http.MethodGet, ts3.URL+"/v1/runs/"+bodyID(t, cancelled), "")
	matchesReference(t, draining, "cancelled", cancelled, nil, false)
	if !bytes.Contains(cancelled, []byte(`"state": "cancelled"`)) {
		t.Errorf("cancelled run is not cancelled: %s", cancelled)
	}

	optimizer, ts4 := newTestServer(t, Config{Workers: 1})
	_, opt := send(t, http.MethodPost, ts4.URL+"/v1/optimize", tinyOptimizeBody)
	awaitBody(t, optimizer, opt)
	_, opt = send(t, http.MethodGet, ts4.URL+"/v1/optimize/"+bodyID(t, opt), "")
	matchesReference(t, optimizer, "optimize", opt, nil, false)
	for _, field := range []string{`"progress": {`, `"optimize": {`} {
		if !bytes.Contains(opt, []byte(field)) {
			t.Errorf("optimize body has no %s: %s", field, opt)
		}
	}
	_, optHit := send(t, http.MethodPost, ts4.URL+"/v1/optimize", tinyOptimizeBody)
	matchesReference(t, optimizer, "optimize memory hit", optHit, outcomeOf(SubmitCached), false)
}

// FuzzStatusBody checks appendStatus against the reference encoding on
// arbitrary ids, error texts and report text (HTML characters, U+2028 and
// U+2029, invalid UTF-8), elapsed times and queue positions, across every
// job state and answer kind.
func FuzzStatusBody(f *testing.F) {
	f.Add("e147c7de", "", "fig13", int64(1500000), uint16(0))
	f.Add("<script>&amp;\u2028", `boom "x" \ y`+"\u2029", "a\u2028b\u2029c", int64(1), uint16(0xffff))
	f.Add("\xff\xfe", "\x00\x1f\x7f\b\f\n\r\t", "\xed\xa0\x80 \xc3", int64(-7), uint16(0x5a5a))
	f.Add("id", "err", "\u901f\u5ea6 \u0394v", int64(1)<<62, uint16(0x1234))
	states := []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
	outcomes := []SubmitOutcome{SubmitNew, SubmitDeduped, SubmitCached, SubmitCachedDisk}
	tiers := []store.Tier{"", store.TierMemory, store.TierDisk}
	f.Fuzz(func(t *testing.T, id, errText, text string, elapsedNS int64, flags uint16) {
		bit := func(i uint) bool { return flags>>i&1 == 1 }
		snap := JobSnapshot{
			ID:     id,
			Req:    RunRequest{Scenario: text, Seed: elapsedNS, Duration: float64(elapsedNS) / 3, Trace: bit(0)},
			State:  states[int(flags%5)],
			Source: tiers[int(flags>>3)%3],
		}
		if bit(5) {
			snap.Submitted = time.Unix(0, elapsedNS).UTC()
			snap.Started = snap.Submitted.Add(time.Duration(flags))
			snap.Finished = snap.Started.Add(time.Duration(elapsedNS))
		}
		if bit(6) || errText != "" {
			snap.Err = errors.New(errText)
		}
		if bit(7) {
			rep := &experiment.Report{ID: id, Title: text, Header: []string{text, errText}, Rows: [][]string{{text}, {id, errText}}, Notes: []string{text}, Volatile: bit(8)}
			if bit(9) {
				rep.Series = trace.NewRecorder()
				for i, name := range []string{text, id} {
					_ = rep.Series.Add(name, float64(i), float64(elapsedNS))
				}
			}
			snap.Result = &RunResult{Report: rep, Events: make([]lifecycle.Event, flags>>13)}
			if bit(10) {
				snap.Result.Optimize = &search.Report{Strategy: text, Objectives: []string{errText}, Seed: elapsedNS}
			}
		}
		if bit(11) {
			snap.Progress = &search.Progress{Evaluated: int(flags), Best: map[string]float64{text: float64(elapsedNS), id: 0.5}}
		}
		pos := -1
		if snap.State == StateQueued && bit(12) {
			pos = int(flags >> 8)
		}
		var outcome *SubmitOutcome
		a := answer{series: bit(4)}
		if bit(3) {
			outcome = outcomeOf(outcomes[int(flags>>1)%4])
			a = submitted(*outcome)
			a.series = false
		}
		request, err := (&Job{Req: snap.Req}).requestJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := appendStatus(nil, snap, request, pos, a)
		want, wantErr := referenceStatus(snap, pos, outcome, a.series)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("appendStatus error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("status body differs from the reference encoding:\n got %q\nwant %q", got, want)
		}
	})
}

// TestLazySamplesConcurrentReaders: one disk-restored result, whose
// samples are decoded on first use, read at once by ?series=1 answers,
// memory hits and Report.Digest calls. Every reader sees the same bytes,
// and under -race the first-use decode shows no data race.
func TestLazySamplesConcurrentReaders(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	const body = `{"experiment": "fig5", "seed": 7}`
	_, warm := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: seriesRunner(600), Disk: openServiceDisk(t, dir)})
	code, st, _ := postRun(t, warm, body)
	if code != http.StatusAccepted {
		t.Fatalf("fresh POST = %d, want 202", code)
	}
	var done runStatus
	for deadline := time.Now().Add(10 * time.Second); done.State != StateDone; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fresh run did not finish")
		}
		getJSON(t, warm.URL+"/v1/runs/"+st.ID, &done)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: seriesRunner(600), Disk: openServiceDisk(t, dir)})
	code, disk, _ := postRun(t, ts, body)
	if code != http.StatusOK || disk.Cache != store.TierDisk {
		t.Fatalf("POST = (%d, %q), want 200/disk", code, disk.Cache)
	}
	j, _ := srv.Manager().Job(disk.ID)
	report := j.Snapshot().Result.Report

	const readers = 8
	var wg sync.WaitGroup
	series := make([][]byte, readers)
	hits := make([][]byte, readers)
	digests := make([]string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, series[i] = send(t, http.MethodGet, ts.URL+"/v1/runs/"+disk.ID+"?series=1", "")
		}()
		go func() {
			defer wg.Done()
			_, hits[i] = send(t, http.MethodPost, ts.URL+"/v1/runs", body)
		}()
		go func() {
			defer wg.Done()
			d, err := report.Digest()
			if err != nil {
				t.Error(err)
			}
			digests[i] = d
		}()
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if !bytes.Equal(series[i], series[0]) || !bytes.Equal(hits[i], hits[0]) || digests[i] != digests[0] {
			t.Fatalf("reader %d saw different bytes", i)
		}
	}
	if digests[0] != disk.Digest {
		t.Errorf("Report.Digest of the restored result = %s, served report_digest %s", digests[0], disk.Digest)
	}
	var full runStatus
	if err := json.Unmarshal(series[0], &full); err != nil {
		t.Fatal(err)
	}
	if n := len(full.Report.Series["gap"]) + len(full.Report.Series["speed_err"]); n != 600 {
		t.Errorf("?series=1 carries %d samples, want 600", n)
	}
	matchesReference(t, srv, "restored series", series[0], nil, true)
}
