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

	// Same request again: the persisted result must be served from disk
	// without re-executing, and decode to an equal report digest.
	res2, tier, digest2, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierDisk || calls != 1 {
		t.Fatalf("second run: tier=%s calls=%d, want disk/1", tier, calls)
	}
	if res1.digest != "" || res2.digest != "" {
		t.Error("Pipeline.Run computed the report digest")
	}
	if digest2 != digest {
		t.Errorf("digest changed between runs: %s vs %s", digest[:12], digest2[:12])
	}
	if got, want := mustDigest(t, res2.Report), mustDigest(t, res1.Report); got != want {
		t.Errorf("disk-served report digest = %s, want %s", got[:12], want[:12])
	}
}

func TestPipelineMemoryTierWins(t *testing.T) {
	d, m := openPipelineDisk(t)
	calls := 0
	resident := map[string]*Result{}
	p := &Pipeline{
		Lookup:  func(digest string) (*Result, bool) { r, ok := resident[digest]; return r, ok },
		Disk:    d,
		Metrics: m,
		Exec:    fakeExec(&calls),
	}
	req := Request{Scenario: "carfollow"}

	res, tier, digest, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMiss {
		t.Fatalf("cold run tier = %s, want miss", tier)
	}
	resident[digest] = res

	_, tier, _, err = p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMemory || calls != 1 {
		t.Fatalf("warm run: tier=%s calls=%d, want memory/1", tier, calls)
	}
	if hits, misses := m.MemoryHits.Load(), m.MemoryMisses.Load(); hits != 1 || misses != 1 {
		t.Errorf("memory hits/misses = %d/%d, want 1/1", hits, misses)
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
	// it as a miss, quarantine it and recompute.
	if err := d.Put(digest, []byte("truncated garbage")); err != nil {
		t.Fatal(err)
	}
	_, tier, _, err := p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierMiss || calls != 2 {
		t.Fatalf("corrupt-entry run: tier=%s calls=%d, want miss/2", tier, calls)
	}
	if got := m.Corrupt.Load(); got != 1 {
		t.Errorf("corrupt counter = %d, want 1", got)
	}
	// The recompute re-persisted a good entry; the next run is a disk hit.
	_, tier, _, err = p.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tier != store.TierDisk || calls != 2 {
		t.Fatalf("post-quarantine run: tier=%s calls=%d, want disk/2", tier, calls)
	}
}

func TestPipelineNormalizeErrorSurfaces(t *testing.T) {
	p := &Pipeline{}
	if _, _, _, err := p.Run(context.Background(), Request{}); err == nil {
		t.Fatal("invalid request passed the pipeline")
	}
}

// A version-1 disk entry, the JSON envelope earlier builds wrote, exactly
// as their EncodeResult encoded v1Exec's result for the carfollow request
// below, and the report digest of that result.
const (
	v1Digest       = "e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04"
	v1ReportDigest = "843d2fb60be48a001a831322013ca018d708735496ba0fbc136a89139d8e8d48"
	v1Entry        = `{"v":1,"digest":"e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04","report":{"id":"run-carfollow","title":"Car following","header":["quantity","value"],"rows":[["rms_tracking_err","0.25"]],"has_series":true,"series":[{"name":"gap","t":[0,0.01],"v":[18.5,18.25]},{"name":"u","t":[0],"v":[-0.5]}]}}`
)

// v1Exec recomputes the run the version-1 entry holds and counts calls.
func v1Exec(calls *int) Func {
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
// earlier build wrote is a miss, quarantined and counted once, and the
// recomputed run is persisted in the current format with the same report
// digest.
func TestPipelineRecomputesVersion1Entry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m := &store.Metrics{}
	d, err := store.OpenDisk(dir, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Scenario: "carfollow"}
	if norm, err := req.Normalize(); err != nil || norm.Digest() != v1Digest {
		t.Fatalf("fixture request does not digest to the entry's digest (%v)", err)
	}
	if err := d.Put(v1Digest, []byte(v1Entry)); err != nil {
		t.Fatal(err)
	}
	calls := 0
	p := &Pipeline{Disk: d, Exec: v1Exec(&calls)}
	for i, want := range []store.Tier{store.TierMiss, store.TierDisk} {
		res, tier, _, err := p.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if tier != want || calls != 1 || m.Corrupt.Load() != 1 {
			t.Fatalf("run %d: tier=%s calls=%d corrupt=%d, want %s/1/1", i, tier, calls, m.Corrupt.Load(), want)
		}
		if got := mustDigest(t, res.Report); got != v1ReportDigest {
			t.Errorf("run %d: report digest %s, want %s", i, got[:12], v1ReportDigest[:12])
		}
	}
	quarantined, err := os.ReadFile(filepath.Join(dir, "quarantine", v1Digest+".json"))
	if err != nil || string(quarantined) != v1Entry {
		t.Errorf("quarantine/ does not hold the version-1 entry (%v)", err)
	}
	data, ok := d.Get(v1Digest)
	if !ok {
		t.Fatal("recomputed run was not persisted")
	}
	back, err := DecodeResult(v1Digest, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, back.Report); got != v1ReportDigest {
		t.Errorf("persisted report digest %s, want %s", got[:12], v1ReportDigest[:12])
	}
}
