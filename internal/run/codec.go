package run

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/search"
	"hcperf/internal/trace"
)

// codecVersion is the disk entry version. Decoding refuses other versions,
// so a format change never silently misreads old entries — they quarantine
// and recompute instead. Version 1 entries are JSON documents without the
// magic below and fail its check; version 2 entries lack the report digest
// and fail the version check.
const codecVersion = 3

// An entry is laid out as
//
//	magic | uvarint len(header) | header | samples | CRC-32C
//
// The header is the JSON envelope below with each series reduced to its
// name and sample count. The samples are every series' (T, V) pairs in
// recording order, each float64 as its little-endian IEEE-754 bits, so the
// round trip is bit-exact by construction. The CRC-32C (Castagnoli),
// little-endian, covers every byte before it.
const (
	codecMagic  = "HCPR"
	sampleBytes = 16 // one (T, V) pair
	crcBytes    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the JSON header of a disk entry. It carries the request
// digest it was stored under, so a mislabeled or cross-wired entry fails
// the integrity check instead of serving the wrong run, and the report
// digest its encoder computed, so a restore never re-hashes the series.
type envelope struct {
	V            int               `json:"v"`
	Digest       string            `json:"digest"`
	ReportDigest string            `json:"report_digest"`
	Report       *reportJSON       `json:"report"`
	Events       []lifecycle.Event `json:"events,omitempty"`
	Optimize     *search.Report    `json:"optimize,omitempty"`
}

// reportJSON mirrors experiment.Report field-for-field, with the trace
// recorder reduced to its series headers in recording order; the samples
// follow the JSON. HasSeries distinguishes a nil recorder from an empty
// one, because Report.Digest hashes the CSV header of an empty recorder
// but nothing for a nil one.
type reportJSON struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	Header    []string       `json:"header,omitempty"`
	Rows      [][]string     `json:"rows,omitempty"`
	PaperRows [][]string     `json:"paper_rows,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
	Volatile  bool           `json:"volatile,omitempty"`
	HasSeries bool           `json:"has_series,omitempty"`
	Series    []seriesHeader `json:"series,omitempty"`
}

// seriesHeader names one series and counts its samples. The name is bytes
// (base64 in JSON) because a series name need not be valid UTF-8, and a
// JSON string would replace the invalid bytes.
type seriesHeader struct {
	Name []byte `json:"name"`
	N    int    `json:"n"`
}

// EncodeResult serializes a completed run for the disk store, keyed by the
// request digest it will be stored under. The entry carries the report
// digest, which EncodeResult takes from res.ReportDigest, computing the
// memo if it is unset.
func EncodeResult(digest string, res *Result) ([]byte, error) {
	if res == nil || res.Report == nil {
		return nil, fmt.Errorf("run: encode %s: result has no report", digest)
	}
	reportDigest, err := res.ReportDigest()
	if err != nil {
		return nil, fmt.Errorf("run: encode %s: %w", digest, err)
	}
	r := res.Report
	rj := &reportJSON{
		ID:        r.ID,
		Title:     r.Title,
		Header:    r.Header,
		Rows:      r.Rows,
		PaperRows: r.PaperRows,
		Notes:     r.Notes,
		Volatile:  r.Volatile,
	}
	var series []*trace.Series
	total := 0
	if r.Series != nil {
		rj.HasSeries = true
		for _, name := range r.Series.Names() {
			s := r.Series.Series(name)
			rj.Series = append(rj.Series, seriesHeader{Name: []byte(name), N: s.Len()})
			series = append(series, s)
			total += s.Len()
		}
	}
	header, err := json.Marshal(envelope{
		V:            codecVersion,
		Digest:       digest,
		ReportDigest: reportDigest,
		Report:       rj,
		Events:       res.Events,
		Optimize:     res.Optimize,
	})
	if err != nil {
		return nil, fmt.Errorf("run: encode %s: %w", digest, err)
	}
	b := make([]byte, 0, len(codecMagic)+binary.MaxVarintLen64+len(header)+total*sampleBytes+crcBytes)
	b = append(b, codecMagic...)
	b = binary.AppendUvarint(b, uint64(len(header)))
	b = append(b, header...)
	for _, s := range series {
		for _, p := range s.Samples {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.T))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// DecodeResult parses a disk entry back into a Result, verifying the
// checksum, the codec version and that the entry was stored under the
// digest it is being read for. Any failure means the entry is corrupt,
// cross-wired or from another version, and must be treated as a miss —
// the pipeline quarantines it. The returned Result's ReportDigest is the
// digest the entry carries, so serving it hashes nothing.
//
// Every check runs here, the series' names, counts and times included,
// but no sample is decoded: the result's recorder holds the sample bytes
// of data, which the caller must not modify, and decodes them on first
// use. A status answer reads only the series names.
func DecodeResult(digest string, data []byte) (*Result, error) {
	fail := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("run: decode %s: "+format, append([]any{digest}, args...)...)
	}
	if !bytes.HasPrefix(data, []byte(codecMagic)) {
		return fail("not a version %d entry (no %s magic)", codecVersion, codecMagic)
	}
	if len(data) < len(codecMagic)+crcBytes {
		return fail("truncated entry")
	}
	body := data[:len(data)-crcBytes]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return fail("checksum %08x, want %08x", got, want)
	}
	rest := body[len(codecMagic):]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return fail("header length out of range")
	}
	header, samples := rest[k:k+int(n)], rest[k+int(n):]
	var env envelope
	if err := json.Unmarshal(header, &env); err != nil {
		return fail("%w", err)
	}
	if env.V != codecVersion {
		return fail("envelope version %d, want %d", env.V, codecVersion)
	}
	if env.Digest != digest {
		return fail("entry stored under digest %s", env.Digest)
	}
	if !isReportDigest(env.ReportDigest) {
		return fail("report digest %q is not 64 lowercase hex characters", env.ReportDigest)
	}
	if env.Report == nil {
		return fail("entry has no report")
	}
	rj := env.Report
	rep := &experiment.Report{
		ID:        rj.ID,
		Title:     rj.Title,
		Header:    rj.Header,
		Rows:      rj.Rows,
		PaperRows: rj.PaperRows,
		Notes:     rj.Notes,
		Volatile:  rj.Volatile,
	}
	if rj.HasSeries {
		block := samples
		names := make([]string, len(rj.Series))
		counts := make([]int, len(rj.Series))
		for i, sh := range rj.Series {
			if sh.N < 0 || sh.N > len(samples)/sampleBytes {
				return fail("series %q claims %d samples, %d bytes left", sh.Name, sh.N, len(samples))
			}
			if err := checkTimes(sh.Name, samples[:sh.N*sampleBytes]); err != nil {
				return fail("%w", err)
			}
			names[i], counts[i] = string(sh.Name), sh.N
			samples = samples[sh.N*sampleBytes:]
		}
		block = block[:len(block)-len(samples)]
		if 2*len(block) < len(data) {
			// Samples that are not most of the entry, as beside a traced
			// run's events, are held as a copy, so the rest is freed.
			block = bytes.Clone(block)
		}
		rec, err := trace.Deferred(names, counts, func(dst []trace.Sample) {
			for i := range dst {
				dst[i] = sampleAt(block, i)
			}
		})
		if err != nil {
			return fail("%w", err)
		}
		rep.Series = rec
	}
	if len(samples) != 0 {
		return fail("%d bytes after the last series", len(samples))
	}
	res := &Result{Report: rep, Events: env.Events, Optimize: env.Optimize}
	res.digestOnce.Do(func() { res.digest = env.ReportDigest })
	return res, nil
}

// sampleAt decodes the i-th (T, V) pair of a sample block.
func sampleAt(block []byte, i int) trace.Sample {
	p := block[i*sampleBytes:]
	return trace.Sample{
		T: math.Float64frombits(binary.LittleEndian.Uint64(p)),
		V: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
	}
}

// checkTimes applies the recorder's rule that a series' times never move
// backwards to the samples of one series, as stored.
func checkTimes(name []byte, series []byte) error {
	for i := 1; i < len(series)/sampleBytes; i++ {
		if prev, t := sampleAt(series, i-1).T, sampleAt(series, i).T; t < prev {
			return fmt.Errorf("series %q time %v before %v", name, t, prev)
		}
	}
	return nil
}

// isReportDigest reports whether s has the form Report.Digest returns: a
// hex-encoded SHA-256 in lower case.
func isReportDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
