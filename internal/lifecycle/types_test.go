package lifecycle

import (
	"math"
	"testing"
)

func TestStatsRatios(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.E2EMissRatio() != 0 {
		t.Error("empty stats should report zero ratios")
	}
	s = Stats{Completed: 8, Missed: 2, E2EDecided: 4, E2EMissed: 1}
	if got := s.MissRatio(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MissRatio = %v, want 0.2", got)
	}
	if got := s.E2EMissRatio(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("E2EMissRatio = %v, want 0.25", got)
	}
}
