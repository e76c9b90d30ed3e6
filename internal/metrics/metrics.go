// Package metrics implements the driving-performance metrics of the HCPerf
// evaluation: collision detection for the motivation experiment, the
// jerk-based passenger-discomfort index of §VII-C, and miss-ratio
// bucketing for the per-second deadline plots.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"hcperf/internal/stats"
)

// CollisionDetector watches the gap between two vehicles and latches the
// first time it closes below MinGap (0 = physical contact).
type CollisionDetector struct {
	// MinGap is the gap at or below which a collision is declared (m).
	MinGap float64

	collided bool
	at       float64
}

// Note observes the gap at time t and reports whether a collision has
// (ever) occurred.
func (c *CollisionDetector) Note(t, gap float64) bool {
	if !c.collided && gap <= c.MinGap {
		c.collided = true
		c.at = t
	}
	return c.collided
}

// Collided reports whether a collision was detected.
func (c *CollisionDetector) Collided() bool { return c.collided }

// At returns the collision time; only meaningful when Collided.
func (c *CollisionDetector) At() float64 { return c.at }

// Discomfort is the passenger-discomfort index: the windowed RMS of
// longitudinal jerk. The comfort literature the paper cites bounds
// acceptable acceleration and jerk; sparse, abrupt control commands raise
// jerk, so this index falls as control throughput rises.
type Discomfort struct {
	window    *stats.Window
	lastAccel float64
	lastT     float64
	primed    bool
}

// NewDiscomfort builds an index over the given number of jerk samples.
func NewDiscomfort(windowSamples int) (*Discomfort, error) {
	w, err := stats.NewWindow(windowSamples)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &Discomfort{window: w}, nil
}

// Note observes the achieved acceleration at time t. Calls must have
// strictly increasing t once primed.
func (d *Discomfort) Note(t, accel float64) error {
	if !d.primed {
		d.lastT, d.lastAccel = t, accel
		d.primed = true
		return nil
	}
	dt := t - d.lastT
	if dt <= 0 {
		return errors.New("metrics: non-increasing time in discomfort index")
	}
	jerk := (accel - d.lastAccel) / dt
	d.window.Push(jerk)
	d.lastT, d.lastAccel = t, accel
	return nil
}

// Index returns the current windowed RMS jerk (m/s^3).
func (d *Discomfort) Index() float64 { return d.window.RMS() }

// MissBuckets accumulates per-interval deadline accounting to reproduce the
// paper's miss-ratio-over-time plots (Figs. 4(a), 13(d), 15(d), 18(b)).
type MissBuckets struct {
	width   float64
	decided []uint64
	missed  []uint64
}

// NewMissBuckets builds an accumulator with the given bucket width in
// seconds.
func NewMissBuckets(width float64) (*MissBuckets, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: bucket width %v must be positive", width)
	}
	return &MissBuckets{width: width}, nil
}

// Note records one decided job at time t: missed=true for a deadline miss.
func (m *MissBuckets) Note(t float64, missed bool) error {
	if t < 0 {
		return fmt.Errorf("metrics: negative time %v", t)
	}
	idx := int(math.Floor(t / m.width))
	for len(m.decided) <= idx {
		m.decided = append(m.decided, 0)
		m.missed = append(m.missed, 0)
	}
	m.decided[idx]++
	if missed {
		m.missed[idx]++
	}
	return nil
}

// Ratio returns the miss ratio of bucket i (0 when the bucket is empty or
// out of range).
func (m *MissBuckets) Ratio(i int) float64 {
	if i < 0 || i >= len(m.decided) || m.decided[i] == 0 {
		return 0
	}
	return float64(m.missed[i]) / float64(m.decided[i])
}

// Ratios returns all bucket miss ratios.
func (m *MissBuckets) Ratios() []float64 {
	out := make([]float64, len(m.decided))
	for i := range out {
		out[i] = m.Ratio(i)
	}
	return out
}

// MeanRatio returns the overall miss ratio across all buckets.
func (m *MissBuckets) MeanRatio() float64 {
	var dec, mis uint64
	for i := range m.decided {
		dec += m.decided[i]
		mis += m.missed[i]
	}
	if dec == 0 {
		return 0
	}
	return float64(mis) / float64(dec)
}

// WeaklyHard tracks the (m, K) weakly-hard real-time constraint: at most m
// deadline misses in any window of K consecutive jobs. Job-class-level
// weakly-hard guarantees are the relaxation of hard real-time that the
// paper's related work (Choi et al., RTAS 2019) analyses; control loops
// tolerate isolated misses but not bursts.
type WeaklyHard struct {
	m, k   int
	window []bool // ring of the last K outcomes: true = missed
	head   int
	misses int  // misses within the ring
	broken bool // some window violated the constraint
}

// NewWeaklyHard builds a tracker for the (m, K) constraint; requires
// 0 <= m < K.
func NewWeaklyHard(m, k int) (*WeaklyHard, error) {
	if k <= 0 || m < 0 || m >= k {
		return nil, fmt.Errorf("metrics: invalid weakly-hard constraint (%d,%d)", m, k)
	}
	return &WeaklyHard{m: m, k: k, window: make([]bool, k)}, nil
}

// Note records one job outcome and reports whether the constraint holds for
// the window ending at this job. Until K outcomes are recorded, the slot
// being overwritten is still false, so the ring needs no fill count.
func (w *WeaklyHard) Note(missed bool) bool {
	if w.window[w.head] {
		w.misses--
	}
	w.window[w.head] = missed
	if missed {
		w.misses++
	}
	w.head = (w.head + 1) % w.k
	ok := w.misses <= w.m
	if !ok {
		w.broken = true
	}
	return ok
}

// Holds reports whether the constraint has held for every window so far.
func (w *WeaklyHard) Holds() bool { return !w.broken }
