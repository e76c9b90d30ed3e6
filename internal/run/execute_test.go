package run

import (
	"context"
	"sync"
	"testing"
)

// TestReportDigestMemoized: Execute leaves the report digest uncomputed;
// concurrent first calls of ReportDigest agree with Report.Digest, and
// later calls return the memoized value without hashing again.
func TestReportDigestMemoized(t *testing.T) {
	req, err := Request{Scenario: "carfollow", Duration: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Series == nil {
		t.Fatal("carfollow run recorded no series")
	}
	if res.digest != "" {
		t.Fatal("Execute computed the report digest")
	}
	want := mustDigest(t, res.Report)

	const callers = 8
	got := make([]string, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			d, err := res.ReportDigest()
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("caller %d: ReportDigest = %q, want %q", i, d, want)
		}
	}

	// Later calls do not hash again, so a changed report keeps the
	// memoized digest.
	res.Report.Title += " (changed)"
	if d, _ := res.ReportDigest(); d != want {
		t.Errorf("ReportDigest recomputed after the first call: %q, want %q", d, want)
	}
}
