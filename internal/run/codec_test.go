package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/search"
	"hcperf/internal/trace"
)

// mustDigest renders a report digest or fails the test.
func mustDigest(t *testing.T, rep *experiment.Report) string {
	t.Helper()
	d, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCodecRoundTripPreservesReportDigest(t *testing.T) {
	// A real traced scenario run: rows, a populated series recorder and
	// lifecycle events all at once. The disk round trip must preserve the
	// report digest byte for byte — that is what makes a disk hit
	// indistinguishable from a recomputation.
	req, err := Request{Scenario: "carfollow", Scheme: "edf", Duration: 2, Trace: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Series == nil || len(res.Events) == 0 {
		t.Fatal("fixture run produced no series or no events; round trip would be vacuous")
	}
	digest := req.Digest()
	data, err := EncodeResult(digest, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(digest, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, back.Report), mustDigest(t, res.Report); got != want {
		t.Errorf("report digest after round trip = %s, want %s", got[:12], want[:12])
	}
	if !reflect.DeepEqual(back.Events, res.Events) {
		t.Errorf("lifecycle events changed across round trip: %d vs %d", len(back.Events), len(res.Events))
	}
	if !reflect.DeepEqual(back.Report.Series.Names(), res.Report.Series.Names()) {
		t.Errorf("series names changed: %v vs %v", back.Report.Series.Names(), res.Report.Series.Names())
	}
}

func TestCodecRoundTripExperimentReport(t *testing.T) {
	// Registry experiments carry paper rows and notes and (for figures) a
	// series recorder; fig5 exercises all of them.
	req, err := Request{Experiment: "fig5"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	digest := req.Digest()
	data, err := EncodeResult(digest, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(digest, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, back.Report), mustDigest(t, res.Report); got != want {
		t.Errorf("report digest after round trip = %s, want %s", got[:12], want[:12])
	}
}

func TestCodecRoundTripOptimizeReport(t *testing.T) {
	rep := &experiment.Report{ID: "optimize-carfollow", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	opt := &search.Report{
		Strategy:   "random",
		Seed:       1,
		Seeds:      2,
		Budget:     4,
		Evaluated:  4,
		Objectives: []string{"pathtrack_rms"},
		Best: []search.BestEntry{{
			Objective: "pathtrack_rms", Value: 0.5, Baseline: 0.75, Improved: true,
			Candidate: search.Candidate{Scheme: "hcperf"},
		}},
	}
	res := &Result{Report: rep, Optimize: opt}
	data, err := EncodeResult("d0", res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult("d0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Optimize, opt) {
		t.Errorf("optimize report changed across round trip:\n got %+v\nwant %+v", back.Optimize, opt)
	}
}

func TestCodecRejectsCorruptEntries(t *testing.T) {
	rep := &experiment.Report{ID: "x", Title: "x"}
	good, err := EncodeResult("deadbeef", &Result{Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	// An entry with two series, a = (0,1) (1,2) and b = (0,3), for the
	// cases that forge its fields or samples.
	rec := trace.NewRecorder()
	for _, s := range []struct {
		name string
		t, v float64
	}{{"a", 0, 1}, {"a", 1, 2}, {"b", 0, 3}} {
		if err := rec.Add(s.name, s.t, s.v); err != nil {
			t.Fatal(err)
		}
	}
	seriesRes := &Result{Report: &experiment.Report{ID: "x", Title: "x", Series: rec}}
	series, err := EncodeResult("deadbeef", seriesRes)
	if err != nil {
		t.Fatal(err)
	}
	base, samples := entryOf(t, "deadbeef", seriesRes)
	reportDigest := base.reportDigest
	if strings.ToUpper(reportDigest) == reportDigest {
		t.Fatal("fixture report digest has no hex letter to upper-case")
	}
	// forge edits a copy of the series entry and seals it under a valid
	// checksum.
	forge := func(edit func(e *entry)) []byte {
		e := base
		e.series = slices.Clone(base.series)
		edit(&e)
		return sealEntry(&e, samples)
	}
	// prefix lays out an entry for "deadbeef" up to its report flags, for
	// the cases that forge what follows them.
	prefix := func() []byte {
		b := append([]byte(codecMagic), codecVersion)
		b = appendString(b, "deadbeef")
		b = appendString(b, reportDigest)
		b = appendString(b, "x")
		b = appendString(b, "x")
		return append(b, 0, 0, 0, 0) // nil header, rows, paper rows and notes
	}
	// An entry with one event that names task name 5 of an empty table.
	badName := binary.AppendUvarint(append(prefix(), 0, 0), 1)
	badName = append(badName, byte(lifecycle.EventRelease), 0, 5, 0, 0)
	badName = append(badName, make([]byte, 24)...)
	badName = appendString(appendString(badName, ""), "{}")
	flipped := bytes.Clone(series)
	flipped[len(flipped)-crcBytes-1] ^= 0x80 // the sign bit of b's value
	backwards := bytes.Clone(samples)
	binary.LittleEndian.PutUint64(backwards[sampleBytes:], math.Float64bits(-1)) // a's second time
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte("not json at all"), "decode"},
		{"truncated", good[:len(good)/2], "decode"},
		{"wrong digest", good, "stored under"},
		{"empty object", []byte("{}"), "version"},
		{"version 1 entry", []byte(v1Entry), "version"},
		{"version 2 entry", []byte(v2Entry), "version"},
		{"version 3 entry", []byte(v3Entry), "version"},
		{"truncated in series block", series[:len(series)-crcBytes-sampleBytes/2], "checksum"},
		{"trailing byte", append(bytes.Clone(series), 0), "checksum"},
		{"flipped float bit", flipped, "checksum"},
		{"magic only", []byte(codecMagic), "truncated"},
		{"digest length beyond input", appendCRC(binary.AppendUvarint(append([]byte(codecMagic), codecVersion), 1<<40)), "digest: length"},
		{"header list beyond input", appendCRC(binary.AppendUvarint(prefix()[:len(prefix())-4], 1<<40)), "report header"},
		// A report header of one column whose name claims more bytes than
		// are left.
		{"header length beyond input", appendCRC(binary.AppendUvarint(append(prefix()[:len(prefix())-4], 2), 1<<40)), "report header: length"},
		{"unknown report flag", appendCRC(append(prefix(), 4)), "report flags"},
		{"series list beyond input", appendCRC(binary.AppendUvarint(append(prefix(), flagSeries), 1<<40)), "series"},
		{"events beyond input", appendCRC(binary.AppendUvarint(append(prefix(), 0, 0), 1<<40)), "events"},
		{"event name beyond its table", appendCRC(badName), "names task name 5 of 0"},
		{"count beyond input", forge(func(e *entry) { e.series[0].n = 4 }), "claims 4 samples, 48 bytes left"},
		{"count of 2^62", forge(func(e *entry) { e.series[0].n = 1 << 62 }), "claims"},
		{"count of 2^64-1", forge(func(e *entry) { e.series[0].n = math.MaxUint64 }), "claims"},
		{"negative count", forge(func(e *entry) { e.series[0].n = 1 << 63 }), "claims"}, // math.MinInt64 as an int
		{"count of zero", forge(func(e *entry) { e.series[1].n = 0 }), "no samples"},
		{"duplicate names", forge(func(e *entry) { e.series[1].name = "a" }), "already recorded"},
		{"decreasing times", sealEntry(&base, backwards), "before"},
		{"bytes after the last series", sealEntry(&base, append(bytes.Clone(samples), 0)), "after the last series"},
		// An entry that ends after its digest, under a valid checksum.
		{"report digest missing", appendCRC(appendString(append([]byte(codecMagic), codecVersion), "deadbeef")), "report digest"},
		{"report digest empty", forge(func(e *entry) { e.reportDigest = "" }), "report digest"},
		{"report digest of 63 characters", forge(func(e *entry) { e.reportDigest = reportDigest[:63] }), "report digest"},
		{"report digest of 65 characters", forge(func(e *entry) { e.reportDigest = reportDigest + "0" }), "report digest"},
		{"report digest upper-case", forge(func(e *entry) { e.reportDigest = strings.ToUpper(reportDigest) }), "report digest"},
		{"report digest not hex", forge(func(e *entry) { e.reportDigest = reportDigest[:63] + "g" }), "report digest"},
		{"view empty", forge(func(e *entry) { e.view = nil }), "view"},
		{"view not an object", forge(func(e *entry) { e.view = []byte("[]") }), "view"},
		{"optimize not JSON", forge(func(e *entry) { e.optimize = []byte("{") }), "optimize"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			digest := "deadbeef"
			switch tt.name {
			case "wrong digest":
				digest = "cafebabe"
			case "version 2 entry", "version 3 entry":
				digest = entryDigest // its own, so only the version can fail
			}
			_, err := DecodeResult(digest, tt.data)
			if err == nil || !strings.Contains(err.Error(), tt.want) || !strings.HasPrefix(err.Error(), "run: decode") {
				t.Fatalf("DecodeResult err = %v, want a decode error containing %q", err, tt.want)
			}
		})
	}
}

// entryOf returns the entry EncodeResult lays out for res, which has no
// search report, and its sample block.
func entryOf(tb testing.TB, digest string, res *Result) (entry, []byte) {
	tb.Helper()
	data, err := EncodeResult(digest, res)
	if err != nil {
		tb.Fatal(err)
	}
	e := entry{digest: digest, report: res.Report, events: res.Events}
	e.reportDigest, _ = res.ReportDigest()
	e.view, _ = res.ReportView()
	if rec := res.Report.Series; rec != nil {
		e.hasSeries = true
		for _, name := range rec.Names() {
			e.series = append(e.series, seriesHeader{name: name, n: uint64(rec.Series(name).Len())})
		}
	}
	head := e.append(nil)
	if !bytes.HasPrefix(data, head) {
		tb.Fatal("entryOf lays out the entry unlike EncodeResult")
	}
	return e, data[len(head) : len(data)-crcBytes]
}

// sealEntry lays out an entry and a sample block under a valid checksum,
// so a forged case reaches the checks behind it.
func sealEntry(e *entry, samples []byte) []byte {
	return appendCRC(append(e.append(nil), samples...))
}

// appendCRC appends the CRC-32C of b that closes an entry.
func appendCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func TestCodecNilVersusEmptySeries(t *testing.T) {
	// A nil recorder and an empty recorder digest differently (the empty
	// one hashes a CSV header), so the codec must preserve the distinction.
	nilRep := &experiment.Report{ID: "x", Title: "x"}
	emptyRep := &experiment.Report{ID: "x", Title: "x", Series: trace.NewRecorder()}
	if mustDigest(t, nilRep) == mustDigest(t, emptyRep) {
		t.Fatal("fixture invalid: nil and empty recorders digest equally")
	}
	for _, rep := range []*experiment.Report{nilRep, emptyRep} {
		data, err := EncodeResult("d0", &Result{Report: rep})
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult("d0", data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustDigest(t, back.Report), mustDigest(t, rep); got != want {
			t.Errorf("digest after round trip = %s, want %s (series nil=%t)",
				got[:12], want[:12], rep.Series == nil)
		}
	}
}

// FuzzDecodeResult has two halves. First, entry is decoded as given and
// resealed under a valid checksum, so mutations also reach the header and
// sample checks behind it: neither may panic, a decode that succeeds holds
// no more samples than its input, and no decode allocates much more than
// its input, so a forged count must fail before it allocates. Second, a
// recorder built from names and bits (fuzzRecorder) must round-trip bit
// for bit: every sample's float64 bits, the name order and the report
// digest.
func FuzzDecodeResult(f *testing.F) {
	special := []uint64{
		0x7ff8000000000001, 0xfff0000000000bad, // NaN payloads
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x8000000000000000, 0x0000000000000001, 0x000fffffffffffff, // −0 and subnormals
	}
	var bits []byte
	for i, b := range special {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(float64(i)))
		bits = binary.LittleEndian.AppendUint64(bits, b)
	}
	names := "a\x00x,y\x00say \"hi\"\x00line\nbreak\x00\xff\xfe\x00 lead"
	res := &Result{Report: &experiment.Report{ID: "fuzz", Title: "t", Series: fuzzRecorder(names, bits)}}
	good, err := EncodeResult("d0", res)
	if err != nil {
		f.Fatal(err)
	}
	e, samples := entryOf(f, "d0", res)
	unsealed := good[:len(good)-crcBytes]
	e.series = slices.Clone(e.series)
	e.series[0].n = 1 << 20
	forged := sealEntry(&e, samples)
	for _, entry := range [][]byte{
		good, unsealed, forged[:len(forged)-crcBytes],
		[]byte(v1Entry), {}, []byte(codecMagic),
	} {
		f.Add(entry, names, bits)
	}
	f.Add(unsealed, "", []byte(nil))
	f.Add(unsealed, "only", bits[:sampleBytes])
	f.Add([]byte(v2Entry), names, bits)
	f.Add([]byte(v3Entry), names, bits)
	f.Fuzz(func(t *testing.T, entry []byte, names string, bits []byte) {
		for _, data := range [][]byte{entry, appendCRC(bytes.Clone(entry))} {
			before := heapAllocBytes()
			res, err := DecodeResult("d0", data)
			if grew := heapAllocBytes() - before; grew > 64*uint64(len(data))+1<<20 {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
			}
			if err == nil && res.Report.Series != nil {
				n := 0
				for _, name := range res.Report.Series.Names() {
					n += res.Report.Series.Series(name).Len()
				}
				if n*sampleBytes > len(data) {
					t.Fatalf("decoded %d samples from %d bytes", n, len(data))
				}
			}
		}

		rec := fuzzRecorder(names, bits)
		rep := &experiment.Report{ID: "fuzz", Title: "round trip", Series: rec}
		res := &Result{Report: rep}
		data, err := EncodeResult("d0", res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult("d0", data)
		if err != nil {
			t.Fatal(err)
		}
		got := back.Report.Series
		if !reflect.DeepEqual(got.Names(), rec.Names()) {
			t.Fatalf("names %q, want %q", got.Names(), rec.Names())
		}
		for _, name := range rec.Names() {
			want, have := rec.Series(name).Samples, got.Series(name).Samples
			if len(have) != len(want) {
				t.Fatalf("series %q: %d samples, want %d", name, len(have), len(want))
			}
			for i := range want {
				if math.Float64bits(have[i].T) != math.Float64bits(want[i].T) ||
					math.Float64bits(have[i].V) != math.Float64bits(want[i].V) {
					t.Fatalf("series %q sample %d = %v, want %v", name, i, have[i], want[i])
				}
			}
		}
		d := mustDigest(t, back.Report)
		if w := mustDigest(t, rep); d != w {
			t.Fatalf("report digest %s, want %s", d[:12], w[:12])
		}
		// The decoded memo is the digest the encoder carried, and it is
		// the digest of the report as decoded.
		encoded, err := res.ReportDigest()
		if err != nil {
			t.Fatal(err)
		}
		if back.digest != encoded || back.digest != d {
			t.Fatalf("decoded report digest memo %q, encoder's %q, decoded report's %q", back.digest, encoded, d)
		}
		// The decoded view is the one the encoder carried, and it is the
		// view of the report as decoded.
		view, err := back.ReportView()
		if err != nil {
			t.Fatal(err)
		}
		rendered, err := json.MarshalIndent(back.Report.View(false), "  ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, rendered) {
			t.Fatalf("decoded view\n%s\nwant the decoded report's\n%s", view, rendered)
		}
		// The view outlives the entry's bytes: it holds none of them.
		clear(data)
		if !bytes.Equal(view, rendered) {
			t.Fatal("decoded view shares the entry's bytes")
		}
	})
}

// fuzzRecorder deals one sample per 16 bytes of bits, T and V as raw
// float64 bits, round-robin over the NUL-separated names. Samples the
// recorder refuses (an empty name, time moving backwards) are skipped.
func fuzzRecorder(names string, bits []byte) *trace.Recorder {
	rec := trace.NewRecorder()
	list := strings.Split(names, "\x00")
	for k := 0; len(bits) >= sampleBytes; k, bits = k+1, bits[sampleBytes:] {
		t := math.Float64frombits(binary.LittleEndian.Uint64(bits))
		v := math.Float64frombits(binary.LittleEndian.Uint64(bits[8:]))
		_ = rec.Add(list[k%len(list)], t, v)
	}
	return rec
}

// heapAllocBytes is the bytes the process has allocated on the heap so
// far.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestDecodeResultDefersSamples: DecodeResult decodes no samples — what it
// allocates does not grow with the series' length — and the recorder it
// returns decodes them on first use, bit for bit.
func TestDecodeResultDefersSamples(t *testing.T) {
	entry := func(samples int) ([]byte, *trace.Recorder) {
		rec := trace.NewRecorder()
		for k := 0; k < samples; k++ {
			name := []string{"gap", "speed_err", "u", "gamma"}[k%4]
			if err := rec.Add(name, float64(k/4)*0.01, math.Sin(float64(k))); err != nil {
				t.Fatal(err)
			}
		}
		data, err := EncodeResult("d0", &Result{Report: &experiment.Report{ID: "x", Title: "x", Series: rec}})
		if err != nil {
			t.Fatal(err)
		}
		return data, rec
	}
	decodeCost := func(data []byte) (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := DecodeResult("d0", data); err != nil {
				t.Fatal(err)
			}
		})
		before := heapAllocBytes()
		if _, err := DecodeResult("d0", data); err != nil {
			t.Fatal(err)
		}
		return allocs, heapAllocBytes() - before
	}
	small, _ := entry(200)
	large, rec := entry(20000)
	smallAllocs, _ := decodeCost(small)
	largeAllocs, largeBytes := decodeCost(large)
	if largeAllocs != smallAllocs {
		t.Errorf("DecodeResult allocates %v times for 20000 samples, %v for 200; want the same", largeAllocs, smallAllocs)
	}
	if largeBytes > 16<<10 {
		t.Errorf("DecodeResult of %d samples allocated %d bytes; want no sample decoded", 20000, largeBytes)
	}

	res, err := DecodeResult("d0", large)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report.Series
	if !reflect.DeepEqual(got.Names(), rec.Names()) {
		t.Fatalf("names %q, want %q", got.Names(), rec.Names())
	}
	for _, name := range rec.Names() {
		if want, have := rec.Series(name).Samples, got.Series(name).Samples; !reflect.DeepEqual(have, want) {
			t.Fatalf("series %q decoded on first use differs: %d samples, want %d", name, len(have), len(want))
		}
	}
}
