package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/store"
	"hcperf/internal/trace"
)

// seriesRunner executes every request as a report whose two series hold n
// samples between them on a shared time base, so the served report digest
// covers a real series CSV.
func seriesRunner(n int) RunFunc {
	return func(_ context.Context, req RunRequest) (*RunResult, error) {
		rec := trace.NewRecorder()
		for i := 0; i < n; i++ {
			name := [2]string{"gap", "speed_err"}[i%2]
			if err := rec.Add(name, float64(i/2)*0.01, math.Sin(float64(i)+float64(req.Seed))); err != nil {
				return nil, err
			}
		}
		return &RunResult{Report: &experiment.Report{ID: req.Kind(), Title: "series", Series: rec}}, nil
	}
}

// servedDigestMatches checks that a served report_digest is the digest of
// the report the manager holds for id.
func servedDigestMatches(t *testing.T, m *Manager, label, id, served string) {
	t.Helper()
	j, ok := m.Job(id)
	if !ok {
		t.Fatalf("%s: job %s not resident", label, id)
	}
	res := j.Snapshot().Result
	if res == nil {
		t.Fatalf("%s: job %s has no result", label, id)
	}
	want, err := res.Report.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if served != want {
		t.Errorf("%s: report_digest = %q, want Report.Digest() %q", label, served, want)
	}
}

// TestServedReportDigest: on a memory hit, a disk restore and a sweep
// cell, the served report_digest is Report.Digest() of the served report,
// and the codec round trip through disk does not change it.
func TestServedReportDigest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: seriesRunner(500), Disk: openServiceDisk(t, dir)})
	const body = `{"experiment": "fig5", "seed": 3}`

	code, st, _ := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("fresh POST = %d, want 202", code)
	}
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()

	code, mem, _ := postRun(t, ts, body)
	if code != http.StatusOK || mem.Cache != store.TierMemory {
		t.Fatalf("warm POST = (%d, %q), want 200/memory", code, mem.Cache)
	}
	servedDigestMatches(t, srv.Manager(), "memory hit", mem.ID, mem.Digest)
	var got runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK || got.Digest != mem.Digest {
		t.Errorf("GET = (%d, %q), want 200 and the POST's %q", code, got.Digest, mem.Digest)
	}

	srv2, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: seriesRunner(500), Disk: openServiceDisk(t, dir)})
	code, disk, _ := postRun(t, ts2, body)
	if code != http.StatusOK || disk.Cache != store.TierDisk {
		t.Fatalf("restarted POST = (%d, %q), want 200/disk", code, disk.Cache)
	}
	servedDigestMatches(t, srv2.Manager(), "disk restore", disk.ID, disk.Digest)
	if disk.Digest != mem.Digest {
		t.Errorf("disk restore report_digest = %q, memory hit %q", disk.Digest, mem.Digest)
	}

	code, events := postSweep(t, ts.URL, `{"template": {"scenario": "carfollow"}, "grid": {"seed": [1, 2]}}`)
	if code != http.StatusOK || len(events) != 4 { // sweep + 2 cells + done
		t.Fatalf("sweep = (%d, %d events), want 200 with 4 events", code, len(events))
	}
	for _, ev := range events[1:3] {
		var cell sweepCellEvent
		if err := json.Unmarshal([]byte(ev.data), &cell); err != nil {
			t.Fatal(err)
		}
		if cell.State != StateDone {
			t.Fatalf("sweep cell = %+v, want done", cell)
		}
		servedDigestMatches(t, srv.Manager(), "sweep cell", cell.ID, cell.ReportDigest)
	}
}

// TestRenderResidentResultAllocs: rendering a resident result allocates
// nothing into a reused buffer, whatever its series size — the report
// digest is hashed and the report and request are rendered on the first
// answer only, not on every one.
func TestRenderResidentResultAllocs(t *testing.T) {
	allocs := func(samples int) float64 {
		srv := New(Config{Workers: 1, Run: seriesRunner(samples)})
		defer func() {
			if err := srv.Manager().Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		j, _, err := srv.Manager().Submit(expReq(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		snap := waitDone(t, j)
		buf := make([]byte, 0, 1<<14)
		return testing.AllocsPerRun(20, func() {
			request, err := j.requestJSON()
			if err != nil {
				t.Fatal(err)
			}
			body, err := appendStatus(buf[:0], snap, request, -1, submitted(SubmitCached))
			if err != nil || !bytes.Contains(body, []byte(`"report_digest": "`)) {
				t.Fatalf("render = %q, %v; want a body with a report_digest", body, err)
			}
		})
	}
	small, large := allocs(20), allocs(2000)
	if large != 0 || small != 0 {
		t.Errorf("render allocs: %v at 2000 samples, %v at 20; want 0", large, small)
	}
}
