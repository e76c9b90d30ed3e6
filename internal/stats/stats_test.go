package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The batch reductions below are the oracle the Accumulator tests compare
// against: each recomputes its statistic from the whole sample slice.

// errEmpty is returned by the batch reductions over empty sample sets.
var errEmpty = errors.New("stats: empty sample set")

// mean returns the arithmetic mean of xs, or an error if xs is empty.
func mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// rms returns the root-mean-square of xs, or an error if xs is empty.
func rms(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(xs))), nil
}

// maxOf returns the largest element of xs.
func maxOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "single", give: []float64{5}, want: 5},
		{name: "pair", give: []float64{2, 4}, want: 3},
		{name: "negatives", give: []float64{-1, 1}, want: 0},
		{name: "mixed", give: []float64{1, 2, 3, 4}, want: 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := mean(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want) {
				t.Errorf("mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
	if _, err := mean(nil); err != errEmpty {
		t.Errorf("mean(nil) err = %v, want errEmpty", err)
	}
}

func TestRMS(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "single", give: []float64{3}, want: 3},
		{name: "sign invariant", give: []float64{-3}, want: 3},
		{name: "pythagorean", give: []float64{3, 4}, want: math.Sqrt(12.5)},
		{name: "zeros", give: []float64{0, 0, 0}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := rms(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want) {
				t.Errorf("rms(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
	if _, err := rms(nil); err != errEmpty {
		t.Errorf("rms(nil) err = %v, want errEmpty", err)
	}
}

func TestMax(t *testing.T) {
	mx, err := maxOf([]float64{3, -1, 4, 1, 5})
	if err != nil || mx != 5 {
		t.Errorf("maxOf = %v, %v; want 5, nil", mx, err)
	}
	if _, err := maxOf(nil); err != errEmpty {
		t.Error("maxOf(nil) should fail")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 3.75, 0, 9, -4.25}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	wantMean, _ := mean(xs)
	wantMax, _ := maxOf(xs)
	if a.N() != len(xs) {
		t.Errorf("N = %d, want %d", a.N(), len(xs))
	}
	if !almostEqual(a.Mean(), wantMean) {
		t.Errorf("Mean = %v, want %v", a.Mean(), wantMean)
	}
	if a.Max() != wantMax {
		t.Errorf("Max = %v, want %v", a.Max(), wantMax)
	}
}

func TestAccumulatorEmptyAndReset(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Max() != 0 || a.N() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(5)
	a.Reset()
	if a.N() != 0 || a.Mean() != 0 || a.Max() != 0 {
		t.Error("Reset did not clear accumulator")
	}
}

func TestWindow(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.RMS() != 0 {
		t.Errorf("empty window RMS = %v, want 0", w.RMS())
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	if wantRMS, _ := rms([]float64{1, 2}); !almostEqual(w.RMS(), wantRMS) {
		t.Errorf("partial window RMS = %v, want %v", w.RMS(), wantRMS)
	}
	w.Push(3)
	w.Push(4) // evicts 1
	if w.Len() != 3 {
		t.Errorf("Len after wrap = %d, want 3", w.Len())
	}
	if wantRMS, _ := rms([]float64{2, 3, 4}); !almostEqual(w.RMS(), wantRMS) {
		t.Errorf("windowed RMS = %v, want %v", w.RMS(), wantRMS)
	}
	if _, err := NewWindow(0); err == nil {
		t.Error("NewWindow(0) succeeded, want error")
	}
}

// Property: the accumulator agrees with the batch reductions for arbitrary
// inputs.
func TestQuickAccumulatorAgreesWithBatch(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var a Accumulator
		for i, r := range raw {
			xs[i] = float64(r) / 7
			a.Add(xs[i])
		}
		wantMean, _ := mean(xs)
		wantMax, _ := maxOf(xs)
		return math.Abs(a.Mean()-wantMean) < 1e-6 && a.Max() == wantMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: over any push sequence, full or partial, a window's RMS is bit
// for bit the RMS of its last pushes summed oldest-first, so the window
// evicts the oldest sample and RMS sums in push order.
func TestQuickWindowRMSMatchesCopy(t *testing.T) {
	f := func(size uint8, raw []int32) bool {
		n := int(size%16) + 1
		w, err := NewWindow(n)
		if err != nil {
			return false
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			// Thirds round, so a sum in another order reads other bits.
			xs[i] = float64(r) / 3
			w.Push(xs[i])
			held := xs[max(0, i+1-n) : i+1]
			sum := 0.0
			for _, y := range held {
				sum += y * y
			}
			want := math.Sqrt(sum / float64(len(held)))
			if w.Len() != len(held) || math.Float64bits(w.RMS()) != math.Float64bits(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a full window's RMS >= |Mean| of the same samples.
func TestQuickRMSDominatesMean(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		w, err := NewWindow(len(raw))
		if err != nil {
			return false
		}
		var a Accumulator
		for _, r := range raw {
			w.Push(float64(r))
			a.Add(float64(r))
		}
		return w.RMS() >= math.Abs(a.Mean())-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
