package run

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/store"
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
