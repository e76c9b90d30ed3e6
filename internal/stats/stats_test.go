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

// stdDev returns the population standard deviation of xs.
func stdDev(xs []float64) (float64, error) {
	m, err := mean(xs)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs))), nil
}

// minOf returns the smallest element of xs.
func minOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
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

func TestStdDev(t *testing.T) {
	got, err := stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2) {
		t.Errorf("stdDev = %v, want 2", got)
	}
	if _, err := stdDev(nil); err != errEmpty {
		t.Errorf("stdDev(nil) err = %v, want errEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	mn, err := minOf(xs)
	if err != nil || mn != -1 {
		t.Errorf("minOf = %v, %v; want -1, nil", mn, err)
	}
	mx, err := maxOf(xs)
	if err != nil || mx != 5 {
		t.Errorf("maxOf = %v, %v; want 5, nil", mx, err)
	}
	if _, err := minOf(nil); err != errEmpty {
		t.Error("minOf(nil) should fail")
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
	wantRMS, _ := rms(xs)
	wantSD, _ := stdDev(xs)
	wantMin, _ := minOf(xs)
	wantMax, _ := maxOf(xs)
	if a.N() != len(xs) {
		t.Errorf("N = %d, want %d", a.N(), len(xs))
	}
	if !almostEqual(a.Mean(), wantMean) {
		t.Errorf("Mean = %v, want %v", a.Mean(), wantMean)
	}
	if !almostEqual(a.RMS(), wantRMS) {
		t.Errorf("RMS = %v, want %v", a.RMS(), wantRMS)
	}
	if !almostEqual(a.StdDev(), wantSD) {
		t.Errorf("StdDev = %v, want %v", a.StdDev(), wantSD)
	}
	if a.Min() != wantMin || a.Max() != wantMax {
		t.Errorf("Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), wantMin, wantMax)
	}
}

func TestAccumulatorEmptyAndReset(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.RMS() != 0 || a.StdDev() != 0 || a.N() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(5)
	a.Reset()
	if a.N() != 0 || a.Mean() != 0 {
		t.Error("Reset did not clear accumulator")
	}
}

func TestWindow(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cap() != 3 {
		t.Errorf("Cap = %d, want 3", w.Cap())
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	got := w.Samples()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Samples = %v, want [1 2]", got)
	}
	w.Push(3)
	w.Push(4) // evicts 1
	got = w.Samples()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("Samples after wrap = %v, want [2 3 4]", got)
	}
	if !almostEqual(w.Mean(), 3) {
		t.Errorf("windowed Mean = %v, want 3", w.Mean())
	}
	wantRMS := math.Sqrt((4.0 + 9 + 16) / 3)
	if !almostEqual(w.RMS(), wantRMS) {
		t.Errorf("windowed RMS = %v, want %v", w.RMS(), wantRMS)
	}
	w.Reset()
	if w.Len() != 0 || w.RMS() != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear window")
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
		wantRMS, _ := rms(xs)
		return math.Abs(a.Mean()-wantMean) < 1e-6 && math.Abs(a.RMS()-wantRMS) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RMS >= |Mean| for any non-empty sample set.
func TestQuickRMSDominatesMean(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		rms, _ := rms(xs)
		mean, _ := mean(xs)
		return rms >= math.Abs(mean)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
