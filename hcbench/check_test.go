package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"hcperf/internal/run"
)

// computed runs one small request in process and returns its body and
// report digest.
func computed(t *testing.T) ([]byte, string) {
	t.Helper()
	body := []byte(`{"scenario":"carfollow","scheme":"edf","seed":3,"duration":1}`)
	var req run.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute(context.Background(), norm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Report.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return body, d
}

func TestCheckHitRejectsTamperedDigest(t *testing.T) {
	it := &item{Rank: 4, Class: classScenario, Digest: "abc"}
	answer := func(digest, cache string) []byte {
		b, _ := json.Marshal(status{ID: "x", State: "done", Digest: digest, Cache: cache})
		return b
	}
	if tier, out, err := checkHit(it, http.StatusOK, answer("abc", "disk")); out != outcomeOK || tier != "disk" || err != nil {
		t.Fatalf("good answer: %v %v %v", tier, out, err)
	}
	if _, out, err := checkHit(it, http.StatusOK, answer("abd", "memory")); out != outcomeWrong || err == nil {
		t.Errorf("tampered digest: outcome %v, err %v", out, err)
	}
	it.Volatile = true
	if _, out, _ := checkHit(it, http.StatusOK, answer("abc", "miss")); out != outcomeWrong {
		t.Errorf("volatile answer recomputed on a hit: outcome %v, want wrong", out)
	}
	if out := transportOutcome(http.StatusTooManyRequests, nil); out != outcomeRefused {
		t.Errorf("429: outcome %v, want refused", out)
	}
	if out := transportOutcome(0, errors.New("reset")); out != outcomeFailed {
		t.Errorf("transport error: outcome %v, want failed", out)
	}
}

func TestCheckRecomputeRejectsTamperedDigest(t *testing.T) {
	body, digest := computed(t)
	if err := checkRecompute(body, digest); err != nil {
		t.Fatalf("untampered: %v", err)
	}
	tampered := []byte(digest)
	tampered[0] ^= 1
	if err := checkRecompute(body, string(tampered)); err == nil {
		t.Error("tampered report digest passed the recompute check")
	}
}

func TestClassifyStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "hcperf/internal/engine.(*Engine).step"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"sort.insertionSort", "hcperf/internal/fleet.Run"}, "fleet"},
		{[]string{"main.traceFleet.func1", "hcperf/internal/lifecycle.(*Kernel).emit"}, "other"},
		{[]string{"hcperf/internal/dag.(*Graph).Succ", "hcperf/internal/engine.x"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	}
	for _, c := range cases {
		if got := classifyStack(c.frames); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestCPUSharesReadsARealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += len(make([]byte, 64))
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if samples == 0 || total < 0.999 || total > 1.001 {
		t.Errorf("%d samples, shares %v sum to %g", samples, shares, total)
	}
	_ = x
}

func TestRSSPeaksResetEverySecond(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	// The reset at the start sets the mark to the resident set, buffer
	// included; the buffer is returned well before the first second ends.
	s, err := sampleRSSPeaks(os.Getpid())
	if err != nil {
		t.Skipf("peak resident set cannot be reset here: %v", err)
	}
	buf = nil
	runtime.GC()
	debug.FreeOSMemory()
	time.Sleep(1100 * time.Millisecond)
	peaks, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	// The first second's peak holds the 64 MiB buffer; the reset at its
	// end drops the mark to the resident set without it.
	if len(peaks) < 2 || peaks[0]-peaks[len(peaks)-1] < 48 {
		t.Errorf("per-second peaks %v: want the first above the last by the buffer", peaks)
	}
}
