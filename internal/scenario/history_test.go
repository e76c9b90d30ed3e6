package scenario

import "testing"

// TestHistoryAt pins the zero-order hold a perception reads: the latest
// row recorded at or before the source time, the last of rows recorded at
// the same time, and nothing before the first row.
func TestHistoryAt(t *testing.T) {
	var h history[int]
	for i, tm := range []float64{1, 2, 2, 3} {
		if err := h.add(tm, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := h.at(0.5); ok {
		t.Error("at before the first row reported a row")
	}
	for _, c := range []struct {
		t    float64
		want int
	}{{1, 0}, {1.5, 0}, {2, 2}, {2.5, 2}, {3, 3}, {99, 3}} {
		if got, ok := h.at(c.t); !ok || got != c.want {
			t.Errorf("at(%v) = %v,%v; want %v,true", c.t, got, ok, c.want)
		}
	}
	if err := h.add(2.5, 4); err == nil {
		t.Error("a row before the last one was accepted")
	}
	if len(h) != 4 {
		t.Errorf("a refused row changed the history to %d rows", len(h))
	}
}
