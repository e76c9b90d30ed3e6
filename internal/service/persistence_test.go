package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hcperf/internal/run"
	"hcperf/internal/store"
)

func openServiceDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskTierSurvivesRestart is the restart-persistence contract: a run
// completed by one manager is a disk hit — not a re-execution — in a fresh
// manager sharing the store directory, exactly the CLI-pre-warms-server
// flow.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")

	f1 := newFakeRunner(false)
	m1 := NewManager(Config{Workers: 1, Run: f1.Run, Disk: openServiceDisk(t, dir)})
	j, outcome, err := m1.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitNew {
		t.Fatalf("first submit = (%v, %v), want new", outcome, err)
	}
	snap := waitDone(t, j)
	if snap.State != StateDone || snap.Source != store.TierMemory {
		t.Fatalf("first run: state=%s source=%s, want done/memory", snap.State, snap.Source)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new manager, new runner, same directory.
	f2 := newFakeRunner(false)
	m2 := NewManager(Config{Workers: 1, Run: f2.Run, Disk: openServiceDisk(t, dir)})
	defer func() {
		if err := m2.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	j2, outcome, err := m2.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("restarted submit = (%v, %v), want disk-cached", outcome, err)
	}
	snap2 := j2.Snapshot()
	if snap2.State != StateDone || snap2.Source != store.TierDisk {
		t.Fatalf("restored job: state=%s source=%s, want done/disk", snap2.State, snap2.Source)
	}
	if snap2.Result == nil || snap2.Result.Report.ID != "fig5" {
		t.Fatalf("restored result = %+v, want the fig5 report", snap2.Result)
	}
	if got := f2.executions.Load(); got != 0 {
		t.Errorf("restarted manager executed %d times, want 0 (disk hit)", got)
	}
	// The restored job is now memory-resident: a third submission is an
	// ordinary memory hit.
	if _, outcome, _ := m2.Submit(expReq(t, 1)); outcome != SubmitCached {
		t.Errorf("re-submit after restore = %v, want memory-cached", outcome)
	}
}

// Disk entries of expReq(t, 1) in the formats earlier builds wrote,
// exactly as their EncodeResult encoded the real fig5 run: version 1, a
// JSON envelope, version 2, the binary layout without the report digest,
// and version 3, a JSON header that carries it. entryDigest is the request
// digest all three are stored under and entryReportDigest that run's
// report digest.
const (
	entryDigest       = "7e9c19ddaa576237b00758b3817bc3f3eb5dd6b9130c3eae7d24c9ca18d744f2"
	entryReportDigest = "9155ec1e74f48591048b5243c7201508da82d3bc57897c68479f8ee09bb3ebac"
	v1Entry           = `{"v":1,"digest":"7e9c19ddaa576237b00758b3817bc3f3eb5dd6b9130c3eae7d24c9ca18d744f2","report":{"id":"fig5","title":"Toy schedule: adaptive vs performance-preferred control-command times","header":["schedule","cmd1 (s)","cmd2 (s)","cmd3 (s)"],"rows":[["adaptive (EDF)","7","8","9"],["preferred (HCPerf γ-grouped)","3","6","9"]],"paper_rows":[["adaptive (Fig. 5(a))","7","8","9"],["preferred (Fig. 5(b))","3","6","9"]]}}`
	v2Entry           = "HCPR\xa1\x03{\"v\":2,\"digest\":\"7e9c19ddaa576237b00758b3817bc3f3eb5dd6b9130c3eae7d24c9ca18d744f2\",\"report\":{\"id\":\"fig5\",\"title\":\"Toy schedule: adaptive vs performance-preferred control-command times\",\"header\":[\"schedule\",\"cmd1 (s)\",\"cmd2 (s)\",\"cmd3 (s)\"],\"rows\":[[\"adaptive (EDF)\",\"7\",\"8\",\"9\"],[\"preferred (HCPerf \xce\xb3-grouped)\",\"3\",\"6\",\"9\"]],\"paper_rows\":[[\"adaptive (Fig. 5(a))\",\"7\",\"8\",\"9\"],[\"preferred (Fig. 5(b))\",\"3\",\"6\",\"9\"]]}}\xc2w\xcc!"
	v3Entry           = "HCPR\xf4\x03{\"v\":3,\"digest\":\"7e9c19ddaa576237b00758b3817bc3f3eb5dd6b9130c3eae7d24c9ca18d744f2\",\"report_digest\":\"9155ec1e74f48591048b5243c7201508da82d3bc57897c68479f8ee09bb3ebac\",\"report\":{\"id\":\"fig5\",\"title\":\"Toy schedule: adaptive vs performance-preferred control-command times\",\"header\":[\"schedule\",\"cmd1 (s)\",\"cmd2 (s)\",\"cmd3 (s)\"],\"rows\":[[\"adaptive (EDF)\",\"7\",\"8\",\"9\"],[\"preferred (HCPerf γ-grouped)\",\"3\",\"6\",\"9\"]],\"paper_rows\":[[\"adaptive (Fig. 5(a))\",\"7\",\"8\",\"9\"],[\"preferred (Fig. 5(b))\",\"3\",\"6\",\"9\"]]}}\xa1\x1b\x81&"
)

// TestManagerRecomputesVersion1Entry pins the upgrade path through the
// job manager: an entry an earlier build wrote, in any earlier format,
// is a miss, quarantined and counted once, the run re-executes and is
// re-persisted carrying its report digest, and a fresh manager over the
// same directory serves that entry from disk with the same report digest.
func TestManagerRecomputesVersion1Entry(t *testing.T) {
	req := expReq(t, 1)
	if req.Digest() != entryDigest {
		t.Fatalf("fixture request digests to %s, not the entries' digest", req.Digest())
	}
	for _, entry := range []struct{ name, data string }{{"version 1", v1Entry}, {"version 2", v2Entry}, {"version 3", v3Entry}} {
		t.Run(entry.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "results")
			d := openServiceDisk(t, dir)
			if err := d.Put(entryDigest, []byte(entry.data)); err != nil {
				t.Fatal(err)
			}
			var executions atomic.Int64
			exec := func(ctx context.Context, req RunRequest) (*RunResult, error) {
				executions.Add(1)
				return Execute(ctx, req)
			}
			m := NewManager(Config{Workers: 1, Run: exec, Disk: d})
			j, outcome, err := m.Submit(req)
			if err != nil || outcome != SubmitNew {
				t.Fatalf("submit over a %s entry = (%v, %v), want new", entry.name, outcome, err)
			}
			snap := waitDone(t, j)
			if snap.State != StateDone || executions.Load() != 1 {
				t.Fatalf("state=%s executions=%d, want done/1", snap.State, executions.Load())
			}
			if got := m.Metrics().Store.Corrupt.Load(); got != 1 {
				t.Errorf("corrupt = %d, want 1", got)
			}
			if err := m.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			quarantined, err := os.ReadFile(filepath.Join(dir, "quarantine", entryDigest+".json"))
			if err != nil || string(quarantined) != entry.data {
				t.Errorf("quarantine/ does not hold the %s entry (%v)", entry.name, err)
			}
			// The re-persisted entry is in the current format and carries
			// the digest of the recomputed report.
			data, ok := d.Get(entryDigest)
			if !ok {
				t.Fatal("recomputed run was not persisted")
			}
			back, err := run.DecodeResult(entryDigest, data)
			if err != nil {
				t.Fatal(err)
			}
			recomputed, err := snap.Result.Report.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if carried, _ := back.ReportDigest(); carried != recomputed || recomputed != entryReportDigest {
				t.Errorf("entry carries report digest %s, recomputed report digests to %s, want %s",
					carried, recomputed, entryReportDigest)
			}

			m2 := NewManager(Config{Workers: 1, Run: exec, Disk: openServiceDisk(t, dir)})
			defer func() {
				if err := m2.Shutdown(context.Background()); err != nil {
					t.Error(err)
				}
			}()
			j2, outcome, err := m2.Submit(req)
			if err != nil || outcome != SubmitCachedDisk {
				t.Fatalf("restarted submit = (%v, %v), want disk-cached", outcome, err)
			}
			if got := m2.Metrics().Store.Corrupt.Load(); got != 0 || executions.Load() != 1 {
				t.Errorf("restart: corrupt=%d executions=%d, want 0/1", got, executions.Load())
			}
			for i, res := range []*RunResult{snap.Result, j2.Snapshot().Result} {
				if got, err := res.ReportDigest(); err != nil || got != entryReportDigest {
					t.Errorf("report digest %d (recomputed, then restored) = %s (%v), want %s", i, got, err, entryReportDigest)
				}
			}
		})
	}
}

// TestMemoryEvictionFallsBackToDisk: a digest evicted from the in-memory
// LRU is restored from disk instead of re-executing.
func TestMemoryEvictionFallsBackToDisk(t *testing.T) {
	f := newFakeRunner(false)
	m := NewManager(Config{
		Workers: 1, CacheSize: 1, Run: f.Run,
		Disk: openServiceDisk(t, filepath.Join(t.TempDir(), "results")),
	})
	defer func() {
		if err := m.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	j1, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, _, err := m.Submit(expReq(t, 2)) // evicts seed 1 from the memory tier
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)

	j3, outcome, err := m.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("evicted resubmit = (%v, %v), want disk-cached", outcome, err)
	}
	if snap := j3.Snapshot(); snap.Source != store.TierDisk {
		t.Errorf("source = %s, want disk", snap.Source)
	}
	if got := f.executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (eviction must not re-execute)", got)
	}
}

// TestCacheProvenance pins the X-HCPerf-Cache header and the `cache` JSON
// field across the miss → memory → disk lifecycle.
func TestCacheProvenance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run, Disk: openServiceDisk(t, dir)})

	code, st, hdr := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusAccepted || hdr.Get("X-HCPerf-Cache") != "miss" || st.Cache != store.TierMiss {
		t.Fatalf("fresh POST = (%d, header %q, cache %q), want 202/miss/miss",
			code, hdr.Get("X-HCPerf-Cache"), st.Cache)
	}
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()

	code, st2, hdr := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusOK || hdr.Get("X-HCPerf-Cache") != "memory" || st2.Cache != store.TierMemory {
		t.Fatalf("warm POST = (%d, header %q, cache %q), want 200/memory/memory",
			code, hdr.Get("X-HCPerf-Cache"), st2.Cache)
	}
	var got runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK || got.Cache != store.TierMemory {
		t.Fatalf("GET = (%d, cache %q), want 200/memory", code, got.Cache)
	}

	// A second server on the same store: the submission restores from
	// disk and says so.
	f2 := newFakeRunner(false)
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f2.Run, Disk: openServiceDisk(t, dir)})
	code, st3, hdr := postRun(t, ts2, `{"experiment": "fig5"}`)
	if code != http.StatusOK || hdr.Get("X-HCPerf-Cache") != "disk" || st3.Cache != store.TierDisk || !st3.Cached {
		t.Fatalf("disk POST = (%d, header %q, cache %q, cached %t), want 200/disk/disk/true",
			code, hdr.Get("X-HCPerf-Cache"), st3.Cache, st3.Cached)
	}
	if code := getJSON(t, ts2.URL+"/v1/runs/"+st3.ID, &got); code != http.StatusOK || got.Cache != store.TierDisk {
		t.Fatalf("disk GET = (%d, cache %q), want 200/disk", code, got.Cache)
	}
}

// TestStoreMetricsExposition pins the per-tier hcperf_store_* families.
func TestStoreMetricsExposition(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run, Disk: openServiceDisk(t, dir)})

	_, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()
	postRun(t, ts, `{"experiment": "fig5"}`) // memory hit

	metrics := fetchMetrics(t, ts)
	for _, want := range []string{
		`hcperf_store_hits_total{tier="memory"} 1`,
		`hcperf_store_hits_total{tier="disk"} 0`,
		`hcperf_store_misses_total{tier="memory"} 1`,
		`hcperf_store_misses_total{tier="disk"} 1`,
		`hcperf_store_evictions_total{tier="memory"} 0`,
		`hcperf_store_evictions_total{tier="disk"} 0`,
		"hcperf_store_corrupt_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestNotFoundJSONEnvelope pins the uniform JSON 404: unknown job IDs on
// both job endpoints and arbitrary unknown paths all carry the apiError
// envelope.
func TestNotFoundJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: newFakeRunner(false).Run})
	for _, path := range []string{
		"/v1/runs/0000000000000000000000000000000000000000000000000000000000000000",
		"/v1/optimize/deadbeef",
		"/v1/nope",
		"/totally/else",
		"/",
	} {
		t.Run(path, func(t *testing.T) {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
			}
			assertJSONError(t, resp)
		})
	}
}
