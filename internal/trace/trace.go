// Package trace records named time series during simulation runs and
// exports them as CSV, which is how every figure of the evaluation is
// regenerated.
package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Sample is one (time, value) point.
type Sample struct {
	T, V float64
}

// Series is an append-only time series. Times must be non-decreasing.
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends a sample; time must not move backwards.
func (s *Series) Add(t, v float64) error {
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		return fmt.Errorf("trace: series %q time %v before %v", s.Name, t, s.Samples[n-1].T)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
	return nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns the sample values as a fresh slice.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, p := range s.Samples {
		out[i] = p.V
	}
	return out
}

// Slice returns the samples with from <= T < to as a fresh slice.
func (s *Series) Slice(from, to float64) []Sample {
	var out []Sample
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// RMS returns the root-mean-square of values with from <= T < to, or 0 if
// the range is empty.
func (s *Series) RMS(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			sum += p.V * p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Mean returns the mean of values with from <= T < to, or 0 if empty.
func (s *Series) Mean(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxAbs returns the largest |value| with from <= T < to, or 0 if empty.
func (s *Series) MaxAbs(from, to float64) float64 {
	m := 0.0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to && math.Abs(p.V) > m {
			m = math.Abs(p.V)
		}
	}
	return m
}

// At returns the latest value with T <= t (zero-order hold) and whether any
// sample qualifies.
func (s *Series) At(t float64) (float64, bool) {
	idx := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > t })
	if idx == 0 {
		return 0, false
	}
	return s.Samples[idx-1].V, true
}

// Recorder collects named series.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Add appends a sample to the named series, creating it on first use.
func (r *Recorder) Add(name string, t, v float64) error {
	if name == "" {
		return errors.New("trace: empty series name")
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s.Add(t, v)
}

// AddSeries records a whole series at once and takes ownership of samples.
// It applies Add's rules once per series rather than once per sample: the
// name must be non-empty and new, and times must not move backwards. A
// series is never empty, because Add creates one only with its first
// sample.
func (r *Recorder) AddSeries(name string, samples []Sample) error {
	if name == "" {
		return errors.New("trace: empty series name")
	}
	if _, ok := r.series[name]; ok {
		return fmt.Errorf("trace: series %q already recorded", name)
	}
	if len(samples) == 0 {
		return fmt.Errorf("trace: series %q has no samples", name)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T < samples[i-1].T {
			return fmt.Errorf("trace: series %q time %v before %v", name, samples[i].T, samples[i-1].T)
		}
	}
	r.series[name] = &Series{Name: name, Samples: samples}
	r.order = append(r.order, name)
	return nil
}

// Series returns the named series, or nil if absent.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns the series names in creation order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// csvFlush is the buffer fill at which WriteCSV hands its bytes to the
// writer: large enough that a hash or file sees few calls, small enough to
// stay in cache.
const csvFlush = 32 << 10

// timeSlot holds the last time WriteCSV formatted at one sample index: its
// float64 bits and its text. 24 bytes fit the longest shortest 'g' text of
// a float64, such as -2.2250738585072014e-308.
type timeSlot struct {
	bits uint64
	n    uint8 // text length; 0 marks a slot not yet filled
	text [24]byte
}

// WriteCSV writes all series in long format: series,time,value. The bytes
// are exactly what encoding/csv writes for those records with its default
// settings, each float in strconv's shortest 'g' form; Report.Digest hashes
// them, so they must never change. Each name is quoted once by encoding/csv
// itself, and the rows are appended to one reused buffer: times and values
// in 'g' form never need quoting, so no sample allocates. Series recorded
// on a shared time base repeat their times index by index, so a time whose
// bits equal those of the last time formatted at its index reuses that
// text; any other time is formatted, so the reuse changes only speed.
func (r *Recorder) WriteCSV(w io.Writer) error {
	// Headroom above csvFlush holds the row that crosses it.
	buf := make([]byte, 0, 2*csvFlush)
	buf = append(buf, "series,time,value\n"...)
	longest := 0
	for _, s := range r.series {
		longest = max(longest, len(s.Samples))
	}
	slots := make([]timeSlot, longest)
	var field bytes.Buffer
	cw := csv.NewWriter(&field)
	for _, name := range r.order {
		// The record {name, ""} renders as the quoted name, a comma and a
		// newline; dropping the newline leaves every row's prefix.
		field.Reset()
		if err := cw.Write([]string{name, ""}); err != nil {
			return fmt.Errorf("trace: quote series name %q: %w", name, err)
		}
		cw.Flush()
		prefix := field.Bytes()[:field.Len()-1]
		for i, p := range r.series[name].Samples {
			buf = append(buf, prefix...)
			sl := &slots[i]
			if tb := math.Float64bits(p.T); sl.n != 0 && sl.bits == tb {
				buf = append(buf, sl.text[:sl.n]...)
			} else {
				m := len(buf)
				buf = appendShortest(buf, p.T)
				sl.bits, sl.n = tb, uint8(copy(sl.text[:], buf[m:]))
			}
			buf = append(buf, ',')
			buf = appendShortest(buf, p.V)
			buf = append(buf, '\n')
			if len(buf) >= csvFlush {
				if _, err := w.Write(buf); err != nil {
					return fmt.Errorf("trace: write rows: %w", err)
				}
				buf = buf[:0]
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("trace: write rows: %w", err)
	}
	return nil
}

// Percentile returns the p-th percentile (0..100, linear interpolation) of
// the values with from <= T < to. It returns 0 for an empty range or an
// out-of-range p.
func (s *Series) Percentile(p, from, to float64) float64 {
	if p < 0 || p > 100 {
		return 0
	}
	var vals []float64
	for _, q := range s.Samples {
		if q.T >= from && q.T < to {
			vals = append(vals, q.V)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vals[lo]
	}
	frac := rank - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}
