package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"hcperf/internal/experiment"
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
	// cases that forge its header or samples.
	rec := trace.NewRecorder()
	for _, s := range []struct {
		name string
		t, v float64
	}{{"a", 0, 1}, {"a", 1, 2}, {"b", 0, 3}} {
		if err := rec.Add(s.name, s.t, s.v); err != nil {
			t.Fatal(err)
		}
	}
	series, err := EncodeResult("deadbeef", &Result{Report: &experiment.Report{ID: "x", Title: "x", Series: rec}})
	if err != nil {
		t.Fatal(err)
	}
	header, samples := splitEntry(t, series)
	reportDigest := mustDigest(t, &experiment.Report{ID: "x", Title: "x", Series: rec})
	if strings.ToUpper(reportDigest) == reportDigest {
		t.Fatal("fixture report digest has no hex letter to upper-case")
	}
	carried := `"report_digest":"` + reportDigest + `"`
	// forgeHeader rewrites the header under a valid checksum.
	forgeHeader := func(old, new string) []byte {
		t.Helper()
		if !bytes.Contains(header, []byte(old)) {
			t.Fatalf("header %s has no %s", header, old)
		}
		return sealEntry(bytes.Replace(header, []byte(old), []byte(new), 1), samples)
	}
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
		{"truncated in series block", series[:len(series)-crcBytes-sampleBytes/2], "checksum"},
		{"trailing byte", append(bytes.Clone(series), 0), "checksum"},
		{"flipped float bit", flipped, "checksum"},
		{"magic only", []byte(codecMagic), "truncated"},
		{"header length beyond input", appendCRC(binary.AppendUvarint([]byte(codecMagic), 1<<40)), "header length"},
		{"count beyond input", forgeHeader(`"n":2`, `"n":4`), "claims 4 samples, 48 bytes left"},
		{"count of 2^62", forgeHeader(`"n":2`, `"n":4611686018427387904`), "claims"},
		{"negative count", forgeHeader(`"n":2`, `"n":-1`), "claims"},
		{"count of zero", forgeHeader(`"n":1`, `"n":0`), "no samples"},
		{"duplicate names", forgeHeader(`"Yg=="`, `"YQ=="`), "already recorded"},
		{"decreasing times", sealEntry(header, backwards), "before"},
		{"bytes after the last series", sealEntry(header, append(bytes.Clone(samples), 0)), "after the last series"},
		{"report digest missing", forgeHeader(","+carried, ""), "report digest"},
		{"report digest empty", forgeHeader(carried, `"report_digest":""`), "report digest"},
		{"report digest of 63 characters", forgeHeader(carried, `"report_digest":"`+reportDigest[:63]+`"`), "report digest"},
		{"report digest of 65 characters", forgeHeader(carried, `"report_digest":"`+reportDigest+`0"`), "report digest"},
		{"report digest upper-case", forgeHeader(carried, `"report_digest":"`+strings.ToUpper(reportDigest)+`"`), "report digest"},
		{"report digest not hex", forgeHeader(carried, `"report_digest":"`+reportDigest[:63]+`g"`), "report digest"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			digest := "deadbeef"
			switch tt.name {
			case "wrong digest":
				digest = "cafebabe"
			case "version 2 entry":
				digest = entryDigest // its own, so only the version can fail
			}
			_, err := DecodeResult(digest, tt.data)
			if err == nil || !strings.Contains(err.Error(), tt.want) || !strings.HasPrefix(err.Error(), "run: decode") {
				t.Fatalf("DecodeResult err = %v, want a decode error containing %q", err, tt.want)
			}
		})
	}
}

// splitEntry returns an entry's JSON header and sample block.
func splitEntry(tb testing.TB, entry []byte) (header, samples []byte) {
	tb.Helper()
	rest := entry[len(codecMagic) : len(entry)-crcBytes]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		tb.Fatalf("entry has no header: %q", entry)
	}
	return rest[k : k+int(n)], rest[k+int(n):]
}

// sealEntry lays out an entry from a header and a sample block under a
// valid checksum, so a forged case reaches the checks behind it.
func sealEntry(header, samples []byte) []byte {
	b := append([]byte(nil), codecMagic...)
	b = binary.AppendUvarint(b, uint64(len(header)))
	b = append(b, header...)
	b = append(b, samples...)
	return appendCRC(b)
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
	good, err := EncodeResult("d0", &Result{Report: &experiment.Report{ID: "fuzz", Title: "t", Series: fuzzRecorder(names, bits)}})
	if err != nil {
		f.Fatal(err)
	}
	header, samples := splitEntry(f, good)
	unsealed := good[:len(good)-crcBytes]
	forged := sealEntry(bytes.Replace(header, []byte(`"n":2`), []byte(`"n":1048576`), 1), samples)
	for _, entry := range [][]byte{
		good, unsealed, forged[:len(forged)-crcBytes],
		[]byte(v1Entry), {}, []byte(codecMagic),
	} {
		f.Add(entry, names, bits)
	}
	f.Add(unsealed, "", []byte(nil))
	f.Add(unsealed, "only", bits[:sampleBytes])
	f.Add([]byte(v2Entry), names, bits)
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
