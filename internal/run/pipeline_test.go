package run

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/store"
	"hcperf/internal/trace"
)

// fakeExec returns a distinct report per call and counts invocations.
func fakeExec(calls *int) Func {
	return func(ctx context.Context, req Request) (*Result, error) {
		*calls++
		return &Result{Report: &experiment.Report{
			ID:    "fake-" + req.Kind(),
			Title: fmt.Sprintf("call %d", *calls),
		}}, nil
	}
}

func openPipelineDisk(t *testing.T) (*store.Disk, *store.Metrics) {
	t.Helper()
	m := &store.Metrics{}
	d, err := store.OpenDisk(filepath.Join(t.TempDir(), "store"), 0, m)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestPipelineMissThenDiskHit(t *testing.T) {
	d, _ := openPipelineDisk(t)
	calls := 0
	p := &Pipeline{Disk: d, Exec: fakeExec(&calls)}
	req := Request{Scenario: "carfollow"}

	res1, tier, digest, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMiss || calls != 1 {
		t.Fatalf("first run: tier=%s calls=%d, want miss/1", tier, calls)
	}
	if digest == "" {
		t.Fatal("pipeline returned no digest")
	}
	// Persisting the fresh result computed its report digest, once, for
	// the entry to carry.
	if res1.digest == "" {
		t.Error("persisting the fresh result left its report digest memo empty")
	}

	// Same request again: the persisted result must be served from disk
	// without re-executing, with the carried digest already memoized.
	res2, tier, digest2, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierDisk || calls != 1 {
		t.Fatalf("second run: tier=%s calls=%d, want disk/1", tier, calls)
	}
	if res2.digest == "" {
		t.Error("the disk hit arrived without its report digest memo")
	}
	if digest2 != digest {
		t.Errorf("digest changed between runs: %s vs %s", digest[:12], digest2[:12])
	}
	want := mustDigest(t, res2.Report)
	if res1.digest != want || res2.digest != want {
		t.Errorf("report digest memos fresh=%q disk=%q, want Report.Digest %q", res1.digest, res2.digest, want)
	}
}

// TestPipelineWithoutStoreNeverDigests pins the path of the CLI without
// -store and of in-process fleet runs: with nothing to persist, a fresh
// result leaves the pipeline with its report digest uncomputed, which also
// catches the digest moving into Execute.
func TestPipelineWithoutStoreNeverDigests(t *testing.T) {
	p := &Pipeline{}
	res, tier, _, err := p.Run(context.Background(), Request{Scenario: "carfollow", Duration: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMiss || res.Report.Series == nil {
		t.Fatalf("tier=%s series=%v, want a fresh run with series", tier, res.Report.Series != nil)
	}
	if res.digest != "" {
		t.Error("Pipeline.Run without a store computed the report digest")
	}
}

func TestPipelineQuarantinesCorruptDiskEntry(t *testing.T) {
	d, m := openPipelineDisk(t)
	calls := 0
	p := &Pipeline{Disk: d, Exec: fakeExec(&calls)}
	req := Request{Scenario: "carfollow"}

	_, _, digest, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the persisted entry with garbage: the next run must treat
	// it as a miss, quarantine it and recompute. The read succeeds, but the
	// lookup counts as a disk miss, never a hit, because the entry does not
	// decode.
	if err := d.Put(digest, []byte("truncated garbage")); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := m.DiskHits.Load(), m.DiskMisses.Load()
	_, tier, _, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMiss || calls != 2 {
		t.Fatalf("corrupt-entry run: tier=%s calls=%d, want miss/2", tier, calls)
	}
	hits, misses, corrupt := m.DiskHits.Load()-hits0, m.DiskMisses.Load()-misses0, m.Corrupt.Load()
	if hits != 0 || misses != 1 || corrupt != 1 {
		t.Errorf("corrupt-entry run counted disk hits/misses/corrupt = %d/%d/%d, want 0/1/1", hits, misses, corrupt)
	}
	// The recompute re-persisted a good entry; the next run is a disk hit.
	_, tier, _, err = p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierDisk || calls != 2 {
		t.Fatalf("post-quarantine run: tier=%s calls=%d, want disk/2", tier, calls)
	}
	if got := m.DiskHits.Load() - hits0; got != 1 {
		t.Errorf("post-quarantine run: disk hits = %d, want 1", got)
	}
}

func TestPipelineNormalizeErrorSurfaces(t *testing.T) {
	p := &Pipeline{}
	if _, _, _, err := p.Run(context.Background(), Request{}); err == nil {
		t.Fatal("invalid request passed the pipeline")
	}
}

// Disk entries in the formats earlier builds wrote, exactly as their
// EncodeResult encoded oldExec's result for the carfollow request below:
// version 1, a JSON envelope, and version 2, the binary layout without the
// report digest. entryDigest is the request digest both are stored under
// and entryReportDigest the report digest of the run they hold.
const (
	entryDigest       = "e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04"
	entryReportDigest = "843d2fb60be48a001a831322013ca018d708735496ba0fbc136a89139d8e8d48"
	v1Entry           = `{"v":1,"digest":"e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04","report":{"id":"run-carfollow","title":"Car following","header":["quantity","value"],"rows":[["rms_tracking_err","0.25"]],"has_series":true,"series":[{"name":"gap","t":[0,0.01],"v":[18.5,18.25]},{"name":"u","t":[0],"v":[-0.5]}]}}`
	v2Entry           = "HCPR\x97\x02{\"v\":2,\"digest\":\"e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04\",\"report\":{\"id\":\"run-carfollow\",\"title\":\"Car following\",\"header\":[\"quantity\",\"value\"],\"rows\":[[\"rms_tracking_err\",\"0.25\"]],\"has_series\":true,\"series\":[{\"name\":\"Z2Fw\",\"n\":2},{\"name\":\"dQ==\",\"n\":1}]}}\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x802@{\x14\xaeG\xe1z\x84?\x00\x00\x00\x00\x00@2@\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0\xbf\x82/\xcc\x85"
)

// oldExec recomputes the run the earlier-format entries hold and counts
// calls.
func oldExec(calls *int) Func {
	return func(ctx context.Context, req Request) (*Result, error) {
		*calls++
		rec := trace.NewRecorder()
		for _, s := range []struct {
			name string
			t, v float64
		}{{"gap", 0, 18.5}, {"gap", 0.01, 18.25}, {"u", 0, -0.5}} {
			if err := rec.Add(s.name, s.t, s.v); err != nil {
				return nil, err
			}
		}
		return &Result{Report: &experiment.Report{
			ID:     "run-carfollow",
			Title:  "Car following",
			Header: []string{"quantity", "value"},
			Rows:   [][]string{{"rms_tracking_err", "0.25"}},
			Series: rec,
		}}, nil
	}
}

// TestPipelineRecomputesVersion1Entry pins the upgrade path: an entry an
// earlier build wrote, in either earlier format, is a miss, quarantined
// and counted once, and the recomputed run is persisted in the current
// format, carrying the report digest of the recomputed report.
func TestPipelineRecomputesVersion1Entry(t *testing.T) {
	req := Request{Scenario: "carfollow"}
	if norm, err := req.Normalize(); err != nil || norm.Digest() != entryDigest {
		t.Fatalf("fixture request does not digest to the entries' digest (%v)", err)
	}
	for _, entry := range []struct{ name, data string }{{"version 1", v1Entry}, {"version 2", v2Entry}} {
		t.Run(entry.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			m := &store.Metrics{}
			d, err := store.OpenDisk(dir, 0, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put(entryDigest, []byte(entry.data)); err != nil {
				t.Fatal(err)
			}
			calls := 0
			p := &Pipeline{Disk: d, Exec: oldExec(&calls)}
			var recomputed *Result
			for i, want := range []store.Tier{store.TierMiss, store.TierDisk} {
				res, tier, _, err := p.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if tier != want || calls != 1 || m.Corrupt.Load() != 1 {
					t.Fatalf("run %d: tier=%s calls=%d corrupt=%d, want %s/1/1", i, tier, calls, m.Corrupt.Load(), want)
				}
				if got := mustDigest(t, res.Report); got != entryReportDigest {
					t.Errorf("run %d: report digest %s, want %s", i, got[:12], entryReportDigest[:12])
				}
				if recomputed == nil {
					recomputed = res
				}
			}
			quarantined, err := os.ReadFile(filepath.Join(dir, "quarantine", entryDigest+".json"))
			if err != nil || string(quarantined) != entry.data {
				t.Errorf("quarantine/ does not hold the %s entry (%v)", entry.name, err)
			}
			data, ok := d.Get(entryDigest)
			if !ok {
				t.Fatal("recomputed run was not persisted")
			}
			back, err := DecodeResult(entryDigest, data)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustDigest(t, recomputed.Report); back.digest != want || want != entryReportDigest {
				t.Errorf("persisted entry carries report digest %q, recomputed report digests to %q, want %s",
					back.digest, want, entryReportDigest)
			}
		})
	}
}
