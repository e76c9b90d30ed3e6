package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddOrdered(t *testing.T) {
	var s Series
	s.Name = "x"
	for _, tm := range []float64{0, 1, 1, 2} {
		if err := s.Add(tm, tm*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(1.5, 0); err == nil {
		t.Error("backwards time accepted")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	vals := s.Values()
	if len(vals) != 4 || vals[3] != 4 {
		t.Errorf("Values = %v", vals)
	}
}

func TestSeriesRangeReductions(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		if err := s.Add(float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Mean(0, 10); got != 4.5 {
		t.Errorf("Mean = %v, want 4.5", got)
	}
	if got := s.Mean(2, 4); got != 2.5 {
		t.Errorf("Mean(2,4) = %v, want 2.5", got)
	}
	wantRMS := math.Sqrt((4 + 9) / 2.0)
	if got := s.RMS(2, 4); math.Abs(got-wantRMS) > 1e-12 {
		t.Errorf("RMS(2,4) = %v, want %v", got, wantRMS)
	}
	if got := s.RMS(100, 200); got != 0 {
		t.Errorf("RMS on empty range = %v, want 0", got)
	}
	if got := s.MaxAbs(0, 10); got != 9 {
		t.Errorf("MaxAbs = %v, want 9", got)
	}
	if got := len(s.Slice(3, 6)); got != 3 {
		t.Errorf("Slice(3,6) has %d samples, want 3", got)
	}
}

func TestSeriesAt(t *testing.T) {
	var s Series
	for _, tm := range []float64{1, 2, 3} {
		if err := s.Add(tm, tm*10); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.At(0.5); ok {
		t.Error("At before first sample should report false")
	}
	if v, ok := s.At(2.5); !ok || v != 20 {
		t.Errorf("At(2.5) = %v,%v; want 20,true", v, ok)
	}
	if v, ok := s.At(3); !ok || v != 30 {
		t.Errorf("At(3) = %v,%v; want 30,true", v, ok)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if err := r.Add("speed", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("speed", 1, 12); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("err", 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("", 0, 1); err == nil {
		t.Error("empty series name accepted")
	}
	if r.Series("speed").Len() != 2 {
		t.Error("series not recorded")
	}
	if r.Series("missing") != nil {
		t.Error("unknown series should be nil")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "speed" || names[1] != "err" {
		t.Errorf("Names = %v, want creation order", names)
	}
}

// TestAddSeries: AddSeries records what the same samples added one by one
// record, and refuses what Add refuses, leaving the recorder unchanged.
func TestAddSeries(t *testing.T) {
	samples := []Sample{{0, 1}, {0.5, 2}, {0.5, 3}, {math.NaN(), 4}, {1, 5}}
	bulk, each := NewRecorder(), NewRecorder()
	if err := bulk.AddSeries("x", samples); err != nil {
		t.Fatal(err)
	}
	for _, p := range samples {
		if err := each.Add("x", p.T, p.V); err != nil {
			t.Fatal(err)
		}
	}
	var got, want bytes.Buffer
	if err := bulk.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := each.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("AddSeries CSV = %q, Add CSV = %q", got.String(), want.String())
	}
	for _, bad := range []struct {
		name    string
		samples []Sample
	}{
		{"", []Sample{{0, 1}}},
		{"x", []Sample{{2, 1}}},
		{"empty", nil},
		{"backwards", []Sample{{1, 0}, {0, 0}}},
	} {
		if err := bulk.AddSeries(bad.name, bad.samples); err == nil {
			t.Errorf("AddSeries(%q, %v) accepted", bad.name, bad.samples)
		}
	}
	if names := bulk.Names(); len(names) != 1 || bulk.Series("x").Len() != len(samples) {
		t.Errorf("refused series changed the recorder: names %v", names)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	if err := r.Add("a", 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("b", 0.25, -2); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "series,time,value\na,0,1.5\nb,0.25,-2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// Property: RMS over the full range matches the direct computation.
func TestQuickSeriesRMS(t *testing.T) {
	f := func(vals []int8) bool {
		var s Series
		sum := 0.0
		for i, v := range vals {
			x := float64(v) / 4
			if err := s.Add(float64(i), x); err != nil {
				return false
			}
			sum += x * x
		}
		if len(vals) == 0 {
			return s.RMS(0, 1) == 0
		}
		want := math.Sqrt(sum / float64(len(vals)))
		return math.Abs(s.RMS(0, float64(len(vals)))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		if err := s.Add(float64(i), float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		p, from, to, want float64
	}{
		{p: 0, from: 0, to: 10, want: 0},
		{p: 100, from: 0, to: 10, want: 90},
		{p: 50, from: 0, to: 10, want: 45},
		{p: 50, from: 4, to: 6, want: 45}, // samples 40,50
		{p: 50, from: 100, to: 200, want: 0},
		{p: -5, from: 0, to: 10, want: 0},
		{p: 101, from: 0, to: 10, want: 0},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p, tt.from, tt.to); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v,[%v,%v)) = %v, want %v", tt.p, tt.from, tt.to, got, tt.want)
		}
	}
	// Single-sample range.
	if got := s.Percentile(75, 3, 4); got != 30 {
		t.Errorf("single-sample percentile = %v, want 30", got)
	}
}

// referenceCSV is the record-at-a-time encoding/csv writer that WriteCSV
// must match byte for byte: one three-field record per sample, each float
// in shortest 'g' form.
func referenceCSV(r *Recorder) ([]byte, error) {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	if err := cw.Write([]string{"series", "time", "value"}); err != nil {
		return nil, err
	}
	for _, name := range r.Names() {
		for _, p := range r.Series(name).Samples {
			rec := []string{
				name,
				strconv.FormatFloat(p.T, 'g', -1, 64),
				strconv.FormatFloat(p.V, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return nil, err
			}
		}
	}
	cw.Flush()
	return b.Bytes(), cw.Error()
}

// FuzzRecorderCSV differentially checks WriteCSV against referenceCSV on
// recorders of two series on one time base: for i below n1 mod 8192, name1
// gets (t0 + i*dt, v + i*dv); then, for i below n2 mod 8192, name2 gets
// the same time, with its bits XORed with flip at index at, and v - i*dv.
// Equal names make one series. A flip of 1 puts one time one ulp off the
// first series', 1<<63 turns +0 into -0, and n2 > n1 makes the later
// series the longest. Samples the recorder refuses (an empty name, time
// moving backwards) are skipped, so the comparison sees exactly what it
// holds.
func FuzzRecorderCSV(f *testing.F) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	const never = math.MaxUint16
	for _, s := range []struct {
		name1, name2  string
		t0, dt, v, dv float64
		n1, n2, at    uint16
		flip          uint64
	}{
		{"a", "b", 0, 0.25, 1.5, -3.5, 4, 4, never, 0},
		// Names encoding/csv must quote.
		{"x,y", `say "hi"`, 0, 0.01, 1, 1, 6, 6, never, 0},
		{"cr\rname", "line\nbreak", 0, 0.01, 1, 1, 6, 6, never, 0},
		{" lead", "\ttab", 0, 0.01, 1, 1, 6, 6, never, 0},
		{"\u00a0nbsp", "\u2003em", 0, 0.01, 1, 1, 6, 6, never, 0},
		{`\.`, "trail ", 0, 0.01, 1, 1, 6, 6, never, 0},
		// Non-ASCII and invalid UTF-8.
		{"速度", "Δv ü", 0, 0.01, 1, 1, 6, 6, never, 0},
		{"\xff\xfe", "é", 0, 0.01, 1, 1, 6, 6, never, 0},
		// Special values as times and values; a flipped NaN bit is
		// another NaN.
		{"nan", "inf", 0, 0.01, nan, 0, 4, 4, never, 0},
		{"inf", "neginf", 0, 0.01, inf, 0, 4, 4, never, 0},
		{"neginf", "x", 0, 0.01, -inf, 1, 4, 4, never, 0},
		{"nan-time", "x", nan, 0, 1, 1, 4, 4, 2, 1},
		{"inf-time", "x", inf, 0, inf, 0, 4, 4, never, 0},
		{"neginf-time", "x", -inf, 0, -inf, 1, 4, 4, 3, 0},
		{"negzero", "x", negZero, negZero, negZero, negZero, 4, 4, never, 0},
		{"subnormal", "x", 5e-324, 5e-324, 5e-324, 2.2250738585072e-308, 4, 4, 1, 1},
		// Both sides of the 'g' exponent switch.
		{"big", "x", 999999, 1, 999999, 1, 3, 3, never, 0},
		{"bigger", "x", 1e6, 1e6, 1e21, 1e21, 3, 3, never, 0},
		{"small", "x", 1e-4, 0, 1e-4, -9e-5, 3, 3, never, 0},
		{"smaller", "x", 1e-5, 1e-5, 1e-5, 1e-6, 3, 3, never, 0},
		// Long enough to cross the flush boundary several times.
		{"tracking_err_sample", "gap", 0, 0.001, 0.1234567891234, 1.0000001, 6000, 3000, never, 0},
		{"", "only", 0, 1, 1, 1, 4, 4, never, 0},
		// Times the second series must not take from the first: one ulp
		// off at one index, and -0 against +0.
		{"lead", "follow", 0, 0.01, 1, 0.5, 100, 100, 37, 1},
		{"pos", "neg", 0, 0.25, 1, 1, 8, 8, 0, 1 << 63},
		// A later series longer than every earlier one.
		{"short", "long", 0, 0.01, 1, 1, 5, 300, never, 0},
	} {
		f.Add(s.name1, s.name2, s.t0, s.dt, s.v, s.dv, s.n1, s.n2, s.at, s.flip)
	}
	f.Fuzz(func(t *testing.T, name1, name2 string, t0, dt, v, dv float64, n1, n2, at uint16, flip uint64) {
		r := NewRecorder()
		for i := 0; i < int(n1%8192); i++ {
			x := float64(i)
			_ = r.Add(name1, t0+x*dt, v+x*dv)
		}
		for i := 0; i < int(n2%8192); i++ {
			x := float64(i)
			tm := t0 + x*dt
			if i == int(at) {
				tm = math.Float64frombits(math.Float64bits(tm) ^ flip)
			}
			_ = r.Add(name2, tm, v-x*dv)
		}
		want, err := referenceCSV(r)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteCSV differs from encoding/csv:\n got %q\nwant %q", clip(got.Bytes()), clip(want))
		}
	})
}

// clip shortens a failing CSV for the message.
func clip(b []byte) []byte {
	if len(b) > 512 {
		return b[:512]
	}
	return b
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("disk full")
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteCSVReportsWriteErrors: a writer failing after the first flush
// or on the last one fails WriteCSV.
func TestWriteCSVReportsWriteErrors(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10000; i++ {
		if err := r.Add("s", float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var full bytes.Buffer
	if err := r.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, csvFlush + 10, full.Len() - 1} {
		if err := r.WriteCSV(&failingWriter{limit: limit}); err == nil {
			t.Errorf("writer failing after %d of %d bytes: WriteCSV returned nil", limit, full.Len())
		}
	}
}
