package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCollisionDetector(t *testing.T) {
	var c CollisionDetector // MinGap 0: contact
	if c.Note(1, 10) {
		t.Error("collision at gap 10")
	}
	if !c.Note(2, 0) {
		t.Error("no collision at gap 0")
	}
	if !c.Collided() || c.At() != 2 {
		t.Errorf("Collided=%v At=%v, want true,2", c.Collided(), c.At())
	}
	// Latches: recovering gap does not clear it.
	if !c.Note(3, 5) {
		t.Error("collision unlatched")
	}
	if c.At() != 2 {
		t.Errorf("At moved to %v", c.At())
	}
}

func TestCollisionDetectorMinGap(t *testing.T) {
	c := CollisionDetector{MinGap: 2}
	if c.Note(0, 2.5) {
		t.Error("collision above MinGap")
	}
	if !c.Note(1, 1.9) {
		t.Error("no collision below MinGap")
	}
}

func TestDiscomfortConstantAccelIsZero(t *testing.T) {
	d, err := NewDiscomfort(50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Note(float64(i)*0.01, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Index(); got != 0 {
		t.Errorf("discomfort %v for constant accel, want 0", got)
	}
}

func TestDiscomfortAbruptCommandsRaiseIndex(t *testing.T) {
	smooth, err := NewDiscomfort(100)
	if err != nil {
		t.Fatal(err)
	}
	abrupt, err := NewDiscomfort(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tm := float64(i) * 0.01
		// Smooth: slow sine. Abrupt: square wave (sparse bang-bang
		// control, the low-throughput failure mode).
		if err := smooth.Note(tm, math.Sin(tm)); err != nil {
			t.Fatal(err)
		}
		sq := 1.0
		if i%20 >= 10 {
			sq = -1
		}
		if err := abrupt.Note(tm, sq); err != nil {
			t.Fatal(err)
		}
	}
	if smooth.Index() >= abrupt.Index() {
		t.Errorf("smooth discomfort %v >= abrupt %v", smooth.Index(), abrupt.Index())
	}
}

func TestDiscomfortValidation(t *testing.T) {
	if _, err := NewDiscomfort(0); err == nil {
		t.Error("zero window accepted")
	}
	d, err := NewDiscomfort(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Note(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Note(1, 0); err == nil {
		t.Error("non-increasing time accepted")
	}
}

func TestMissBuckets(t *testing.T) {
	m, err := NewMissBuckets(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket 0: 3 decided, 1 missed. Bucket 2: 2 decided, 2 missed.
	for _, ev := range []struct {
		t      float64
		missed bool
	}{
		{t: 0.1}, {t: 0.5, missed: true}, {t: 0.9},
		{t: 2.0, missed: true}, {t: 2.9, missed: true},
	} {
		if err := m.Note(ev.t, ev.missed); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Ratio(0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Ratio(0) = %v, want 1/3", got)
	}
	if got := m.Ratio(1); got != 0 {
		t.Errorf("Ratio(1) = %v, want 0 (empty bucket)", got)
	}
	if got := m.Ratio(2); got != 1 {
		t.Errorf("Ratio(2) = %v, want 1", got)
	}
	if got := m.Ratio(99); got != 0 {
		t.Errorf("Ratio out of range = %v, want 0", got)
	}
	ratios := m.Ratios()
	if len(ratios) != 3 || ratios[2] != 1 {
		t.Errorf("Ratios = %v", ratios)
	}
	if got := m.MeanRatio(); math.Abs(got-3.0/5) > 1e-12 {
		t.Errorf("MeanRatio = %v, want 0.6", got)
	}
}

func TestMissBucketsValidation(t *testing.T) {
	if _, err := NewMissBuckets(0); err == nil {
		t.Error("zero width accepted")
	}
	m, err := NewMissBuckets(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Note(-1, false); err == nil {
		t.Error("negative time accepted")
	}
	if m.MeanRatio() != 0 {
		t.Error("empty MeanRatio should be 0")
	}
}

// Property: every bucket ratio is within [0,1] and MeanRatio is within the
// min/max bucket ratios' envelope [0,1].
func TestQuickMissBucketsBounded(t *testing.T) {
	f := func(events []uint16) bool {
		m, err := NewMissBuckets(0.5)
		if err != nil {
			return false
		}
		for _, e := range events {
			tm := float64(e%1000) / 100
			if err := m.Note(tm, e%3 == 0); err != nil {
				return false
			}
		}
		for _, r := range m.Ratios() {
			if r < 0 || r > 1 {
				return false
			}
		}
		mr := m.MeanRatio()
		return mr >= 0 && mr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeaklyHardValidation(t *testing.T) {
	for _, mk := range [][2]int{{-1, 5}, {5, 5}, {0, 0}, {6, 5}} {
		if _, err := NewWeaklyHard(mk[0], mk[1]); err == nil {
			t.Errorf("invalid constraint (%d,%d) accepted", mk[0], mk[1])
		}
	}
	if _, err := NewWeaklyHard(1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestWeaklyHardHoldsOnIsolatedMisses(t *testing.T) {
	w, err := NewWeaklyHard(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One miss per 5 jobs: constraint holds.
	for i := 0; i < 50; i++ {
		if ok := w.Note(i%5 == 0); !ok {
			t.Fatalf("constraint broken at job %d with isolated misses", i)
		}
	}
	if !w.Holds() {
		t.Error("isolated misses should satisfy (1,5)")
	}
}

func TestWeaklyHardBreaksOnBurst(t *testing.T) {
	w, err := NewWeaklyHard(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []bool{false, false, true, true, false, false, false}
	var broke bool
	for _, m := range outcomes {
		if !w.Note(m) {
			broke = true
		}
	}
	if !broke || w.Holds() {
		t.Error("two consecutive misses should break (1,5)")
	}
}

func TestWeaklyHardWindowSlides(t *testing.T) {
	w, err := NewWeaklyHard(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Misses: m m _ m m -> windows of 3 never exceed 2.
	for i, m := range []bool{true, true, false, true, true} {
		if ok := w.Note(m); !ok {
			t.Fatalf("constraint unexpectedly broken at %d", i)
		}
	}
	// Now a third consecutive miss within a window of 3 breaks it.
	if w.Note(true) {
		t.Error("3 misses in a 3-window should break (2,3)")
	}
}

// Property: with miss probability 0, the constraint always holds; with all
// misses, it breaks as soon as the window fills past m.
func TestQuickWeaklyHardExtremes(t *testing.T) {
	f := func(mRaw, kRaw uint8) bool {
		k := int(kRaw%10) + 2
		m := int(mRaw) % (k - 1)
		clean, err := NewWeaklyHard(m, k)
		if err != nil {
			return false
		}
		for i := 0; i < 3*k; i++ {
			if !clean.Note(false) {
				return false
			}
		}
		dirty, err := NewWeaklyHard(m, k)
		if err != nil {
			return false
		}
		for i := 0; i < 3*k; i++ {
			dirty.Note(true)
		}
		return clean.Holds() && !dirty.Holds()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
