package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig4", "fig5", "fig12", "fig13", "table2", "table3",
		"fig14", "table4", "fig15", "table5", "table6",
		"fig16", "fig17", "fig18", "overhead",
		"ablate-gammacap", "ablate-e2e", "ablate-dataage", "sweep-procs", "ext-aeb", "ext-dual", "ext-fleet", "ext-tune",
	}
	ids := IDs()
	got := make(map[string]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	// IDs must be sorted for stable CLI output.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", 1, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig5ExactMatch(t *testing.T) {
	rep, err := Run("fig5", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	adaptive := rep.Rows[0]
	preferred := rep.Rows[1]
	if adaptive[1] != "7" || adaptive[2] != "8" || adaptive[3] != "9" {
		t.Errorf("adaptive command times %v, want 7,8,9", adaptive[1:])
	}
	if preferred[1] != "3" || preferred[2] != "6" || preferred[3] != "9" {
		t.Errorf("preferred command times %v, want 3,6,9", preferred[1:])
	}
}

func TestFig4Collision(t *testing.T) {
	rep, err := Run("fig4", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0][1] != "true" {
		t.Error("motivation experiment did not report a collision")
	}
	if rep.Series == nil || rep.Series.Series("miss_ratio") == nil {
		t.Error("fig4 missing miss_ratio series")
	}
}

func TestFig12Monotonicity(t *testing.T) {
	rep, err := Run("fig12", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// sensor_fusion row must be strictly increasing across scenes.
	var fusion []string
	for _, row := range rep.Rows {
		if row[0] == "sensor_fusion" {
			fusion = row[1:]
		}
	}
	if fusion == nil {
		t.Fatal("no sensor_fusion row")
	}
	prev := 0.0
	for _, cell := range fusion {
		var v float64
		if _, err := fmtSscan(cell, &v); err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		if v <= prev {
			t.Errorf("fusion time %v not increasing (prev %v)", v, prev)
		}
		prev = v
	}
}

func TestTable2HCPerfWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	rep, err := Run("table2", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	// Header: metric, HPF, EDF, EDF-VD, Apollo, HCPerf.
	var vals []float64
	for _, cell := range row[1:] {
		var v float64
		if _, err := fmtSscan(cell, &v); err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		vals = append(vals, v)
	}
	hc := vals[len(vals)-1]
	for i, v := range vals[:len(vals)-1] {
		if hc >= v {
			t.Errorf("HCPerf %.3f not better than %s %.3f", hc, rep.Header[i+1], v)
		}
	}
}

func TestOverheadWithinPaperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	rep, err := Run("overhead", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var perPeriodMS float64
	for _, row := range rep.Rows {
		if row[0] == "cost per 1 s period (ms)" {
			if _, err := fmtSscan(row[1], &perPeriodMS); err != nil {
				t.Fatal(err)
			}
		}
	}
	if perPeriodMS <= 0 || perPeriodMS > 5 {
		t.Errorf("coordinator cost %.3f ms per period, want (0, 5]", perPeriodMS)
	}
}

func TestWriteTextAndCSV(t *testing.T) {
	rep, err := Run("fig5", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig5", "[measured]", "[paper]", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q", want)
		}
	}

	dir := t.TempDir()
	rep2, err := Run("fig4", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep2.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4.csv", "fig4_rows.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// fmtSscan wraps fmt.Sscan to keep the test imports tidy.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestRunConcurrentWorkerCounts runs experiments at 1 and 4 workers from
// concurrent goroutines. The worker count is each call's own argument, so
// no run can change another's, and every run digests to the pinned value.
func TestRunConcurrentWorkerCounts(t *testing.T) {
	type call struct {
		id      string
		workers int
	}
	calls := []call{{"table2", 1}, {"table2", 4}, {"ext-tune", 1}, {"ext-tune", 4}}
	digests := make([]string, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Run(c.id, 1, c.workers)
			if err == nil {
				digests[i], err = rep.Digest()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, c := range calls {
		if errs[i] != nil {
			t.Fatalf("%s at %d workers: %v", c.id, c.workers, errs[i])
		}
		if digests[i] != goldenDigests[c.id] {
			t.Errorf("%s at %d workers: digest %s, want %s", c.id, c.workers, digests[i], goldenDigests[c.id])
		}
	}
}
