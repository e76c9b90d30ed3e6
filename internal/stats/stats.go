// Package stats provides the online statistics used throughout the HCPerf
// evaluation: a running accumulator (count, mean, max) and a
// fixed-capacity sliding window.
package stats

import (
	"errors"
	"math"
)

// Accumulator collects samples incrementally without retaining them,
// tracking count, mean and max. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	max  float64
}

// Add incorporates one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	a.mean += (x - a.mean) / float64(a.n)
}

// N returns the number of samples added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Max returns the largest sample (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// Reset discards all samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Window is a fixed-capacity sliding window of samples supporting a
// windowed RMS, used for jerk-based passenger discomfort.
type Window struct {
	buf  []float64
	head int
	full bool
}

// NewWindow returns a sliding window holding up to n samples. n must be > 0.
func NewWindow(n int) (*Window, error) {
	if n <= 0 {
		return nil, errors.New("stats: window size must be positive")
	}
	return &Window{buf: make([]float64, n)}, nil
}

// Push adds a sample, evicting the oldest when full.
func (w *Window) Push(x float64) {
	w.buf[w.head] = x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
		w.full = true
	}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.head
}

// RMS returns the RMS of the held samples (0 when empty). The squares are
// summed oldest-first, in place.
func (w *Window) RMS() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	if w.full {
		for _, x := range w.buf[w.head:] {
			sum += x * x
		}
	}
	for _, x := range w.buf[:w.head] {
		sum += x * x
	}
	return math.Sqrt(sum / float64(n))
}
