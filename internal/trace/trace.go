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
	"sync"
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

// Recorder collects named series.
type Recorder struct {
	series map[string]*Series
	order  []string
	// deferred, set only by Deferred, fills the samples on first use.
	deferred *deferredFill
}

// deferredFill is the one pending fill of a Deferred recorder.
type deferredFill struct {
	once   sync.Once
	counts []int
	fill   func(dst []Sample)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Deferred returns a recorder of the named series, in order, whose samples
// are filled in on first use: the first call of Series, WriteCSV, Add or a
// handle's Add allocates one slice for every series' counts[i] samples,
// and fill writes them into it, series after series. fill runs once,
// however many goroutines read the recorder at once; Names needs no
// samples. Deferred takes ownership of names and counts, and holds them to
// what Add can record: a name is non-empty and new, and a series holds at
// least one sample. It never sees the times, so the caller checks that
// they do not move backwards.
func Deferred(names []string, counts []int, fill func(dst []Sample)) (*Recorder, error) {
	if len(counts) != len(names) {
		return nil, fmt.Errorf("trace: %d counts for %d series", len(counts), len(names))
	}
	r := &Recorder{series: make(map[string]*Series, len(names)), order: names}
	all := make([]Series, len(names))
	for i, name := range names {
		switch _, dup := r.series[name]; {
		case name == "":
			return nil, errors.New("trace: empty series name")
		case dup:
			return nil, fmt.Errorf("trace: series %q already recorded", name)
		case counts[i] <= 0:
			return nil, fmt.Errorf("trace: series %q has no samples", name)
		}
		all[i].Name = name
		r.series[name] = &all[i]
	}
	r.deferred = &deferredFill{counts: counts, fill: fill}
	return r, nil
}

// load fills a Deferred recorder's samples on first use; other recorders
// hold theirs already. It inlines, so Add pays one nil check.
func (r *Recorder) load() {
	if r.deferred != nil {
		r.fillOnce()
	}
}

// fillOnce runs a Deferred recorder's fill, once, into one slice for
// every sample, and hands each series its part.
func (r *Recorder) fillOnce() {
	d := r.deferred
	d.once.Do(func() {
		total := 0
		for _, n := range d.counts {
			total += n
		}
		all := make([]Sample, total)
		d.fill(all)
		for i, name := range r.order {
			n := d.counts[i]
			// A full slice expression, so appending to one series never
			// writes over the next.
			r.series[name].Samples = all[:n:n]
			all = all[n:]
		}
		d.fill = nil // release what the fill holds, such as an entry's bytes
	})
}

// Add appends a sample to the named series, creating it on first use.
func (r *Recorder) Add(name string, t, v float64) error {
	s, err := r.join(name, 0)
	if err != nil {
		return err
	}
	return s.Add(t, v)
}

// join returns the named series, creating it with room for n samples, and
// appending it to the series order, if it does not exist yet.
func (r *Recorder) join(name string, n int) (*Series, error) {
	if name == "" {
		return nil, errors.New("trace: empty series name")
	}
	r.load()
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name, Samples: make([]Sample, 0, n)}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s, nil
}

// Handle is one named series of a recorder, taken once and appended to
// without a lookup by name. Its series joins the recorder at the first
// Add, not when the handle is taken, so series keep the order of their
// first samples and a handle that never records leaves no series behind.
// A handle of a nil recorder records nothing.
type Handle struct {
	rec  *Recorder
	name string
	n    int
	s    *Series // nil until the first Add
}

// Handle returns a handle on the named series. A series the handle creates
// starts with room for n samples; one that Add created first is shared.
func (r *Recorder) Handle(name string, n int) Handle {
	return Handle{rec: r, name: name, n: n}
}

// Add appends a sample to the handle's series under Series.Add's rules.
func (h *Handle) Add(t, v float64) error {
	if h.s == nil {
		if h.rec == nil {
			return nil
		}
		s, err := h.rec.join(h.name, h.n)
		if err != nil {
			return err
		}
		h.s = s
	}
	return h.s.Add(t, v)
}

// Series returns the named series, or nil if absent.
func (r *Recorder) Series(name string) *Series {
	r.load()
	return r.series[name]
}

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
	r.load()
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
