package run

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"hcperf/internal/dag"
	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/search"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
)

// codecVersion is the disk entry version. Decoding refuses other versions,
// so a format change never silently misreads old entries — they quarantine
// and recompute instead. Version 1 entries are JSON documents without the
// magic below and fail its check; versions 2 and 3 put a uvarint header
// length of at least 128 where the version byte is, and fail the version
// check. The entry carries the bytes Result.ReportView renders, so any
// change to that render must bump the version too.
const codecVersion = 4

// An entry is laid out as
//
//	magic | version | digest | report digest | report | series headers |
//	events | optimize | view | samples | CRC-32C
//
// Every field before the samples is binary: a string or byte section is a
// uvarint length and its bytes, a list is a uvarint count and its items,
// and a list that may be nil (a report's header, rows, paper rows, notes
// and each row) counts len+1, with 0 for nil, so the decoded report renders
// exactly as the encoded one. The report ends in a flag byte (volatile, has
// series); the series headers, present only with a recorder, name each
// series and count its samples. The events are a table of task names and
// one fixed-order record per event that indexes it. The optimize section
// is the search report's JSON, empty when there is none. The view is
// Result.ReportView's bytes, stored verbatim, so a restore renders
// nothing. The samples are every series' (T, V) pairs in recording order,
// each float64 as its little-endian IEEE-754 bits, so the round trip is
// bit-exact by construction. The CRC-32C (Castagnoli), little-endian,
// covers every byte before it.
const (
	codecMagic  = "HCPR"
	sampleBytes = 16 // one (T, V) pair
	crcBytes    = 4
	// minEventBytes is the shortest event record: kind, task, name index,
	// cycle and processor of one byte each, and three float64 times.
	minEventBytes = 5 + 3*8
)

// Report flag bits.
const (
	flagVolatile = 1 << iota
	flagSeries
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is what a disk entry holds before its samples.
type entry struct {
	digest, reportDigest string
	report               *experiment.Report // every field but Series
	hasSeries            bool
	series               []seriesHeader
	events               []lifecycle.Event
	optimize             []byte // JSON of the search report; nil for none
	view                 []byte
}

// seriesHeader names one series and counts its samples.
type seriesHeader struct {
	name string
	n    uint64
}

// EncodeResult serializes a completed run for the disk store, keyed by the
// request digest it will be stored under. The entry carries the report
// digest and the report view, which EncodeResult takes from
// res.ReportDigest and res.ReportView, computing each memo if it is unset.
func EncodeResult(digest string, res *Result) ([]byte, error) {
	if res == nil || res.Report == nil {
		return nil, fmt.Errorf("run: encode %s: result has no report", digest)
	}
	reportDigest, err := res.ReportDigest()
	if err != nil {
		return nil, fmt.Errorf("run: encode %s: %w", digest, err)
	}
	view, err := res.ReportView()
	if err != nil {
		return nil, fmt.Errorf("run: encode %s: %w", digest, err)
	}
	e := entry{digest: digest, reportDigest: reportDigest, report: res.Report, events: res.Events, view: view}
	if res.Optimize != nil {
		if e.optimize, err = json.Marshal(res.Optimize); err != nil {
			return nil, fmt.Errorf("run: encode %s: %w", digest, err)
		}
	}
	var series []*trace.Series
	total := 0
	if rec := res.Report.Series; rec != nil {
		e.hasSeries = true
		for _, name := range rec.Names() {
			s := rec.Series(name)
			e.series = append(e.series, seriesHeader{name: name, n: uint64(s.Len())})
			series = append(series, s)
			total += s.Len()
		}
	}
	size := len(codecMagic) + 1 + 256 + 2*len(view) + len(e.optimize) +
		40*len(e.events) + 16*len(e.series) + total*sampleBytes + crcBytes
	b := e.append(make([]byte, 0, size))
	for _, s := range series {
		for _, p := range s.Samples {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.T))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// append lays out everything of the entry before its samples.
func (e *entry) append(b []byte) []byte {
	b = append(b, codecMagic...)
	b = append(b, codecVersion)
	b = appendString(b, e.digest)
	b = appendString(b, e.reportDigest)
	r := e.report
	b = appendString(b, r.ID)
	b = appendString(b, r.Title)
	b = appendStrings(b, r.Header)
	b = appendRows(b, r.Rows)
	b = appendRows(b, r.PaperRows)
	b = appendStrings(b, r.Notes)
	var flags byte
	if r.Volatile {
		flags |= flagVolatile
	}
	if e.hasSeries {
		flags |= flagSeries
	}
	b = append(b, flags)
	if e.hasSeries {
		b = binary.AppendUvarint(b, uint64(len(e.series)))
		for _, s := range e.series {
			b = appendString(b, s.name)
			b = binary.AppendUvarint(b, s.n)
		}
	}
	b = appendEvents(b, e.events)
	b = appendString(b, e.optimize)
	return appendString(b, e.view)
}

// appendEvents lays out a table of the events' task names, in order of
// first use, and one record per event.
func appendEvents(b []byte, events []lifecycle.Event) []byte {
	if len(events) == 0 {
		return append(b, 0, 0) // no names, no events
	}
	index := make(map[string]uint64)
	var names []string
	for _, ev := range events {
		if _, ok := index[ev.TaskName]; !ok {
			index[ev.TaskName] = uint64(len(names))
			names = append(names, ev.TaskName)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(len(events)))
	for _, ev := range events {
		b = append(b, byte(ev.Kind))
		b = binary.AppendVarint(b, int64(ev.Task))
		b = binary.AppendUvarint(b, index[ev.TaskName])
		b = binary.AppendUvarint(b, ev.Cycle)
		b = binary.AppendVarint(b, int64(ev.Proc))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(ev.T)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(ev.SourceTime)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(ev.Deadline)))
	}
	return b
}

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStrings appends a list that may be nil: its length plus one, or 0
// for nil, then its strings.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(ss))+1)
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendRows appends a list of rows that may be nil, as appendStrings
// does, and each row as a list that may be nil.
func appendRows(b []byte, rows [][]string) []byte {
	if rows == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(rows))+1)
	for _, row := range rows {
		b = appendStrings(b, row)
	}
	return b
}

// DecodeResult parses a disk entry back into a Result, verifying the
// checksum, the codec version and that the entry was stored under the
// digest it is being read for. Any failure means the entry is corrupt,
// cross-wired or from another version, and must be treated as a miss —
// the pipeline quarantines it. The returned Result's ReportDigest and
// ReportView are the ones the entry carries, so serving it hashes and
// renders nothing.
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
	if len(data) < len(codecMagic)+1+crcBytes {
		return fail("truncated entry")
	}
	body := data[:len(data)-crcBytes]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return fail("checksum %08x, want %08x", got, want)
	}
	if v := body[len(codecMagic)]; v != codecVersion {
		return fail("entry version %d, want %d", v, codecVersion)
	}
	r := &reader{b: body[len(codecMagic)+1:]}
	if stored := r.string("digest"); r.err == nil && stored != digest {
		return fail("entry stored under digest %s", stored)
	}
	reportDigest := r.string("report digest")
	if r.err == nil && !isReportDigest(reportDigest) {
		return fail("report digest %q is not 64 lowercase hex characters", reportDigest)
	}
	rep := &experiment.Report{
		ID:        r.string("report id"),
		Title:     r.string("report title"),
		Header:    r.strings("report header"),
		Rows:      r.rows("report rows"),
		PaperRows: r.rows("report paper rows"),
		Notes:     r.strings("report notes"),
	}
	flags := r.byte("report flags")
	if flags&^(flagVolatile|flagSeries) != 0 {
		return fail("report flags %#x", flags)
	}
	rep.Volatile = flags&flagVolatile != 0
	var names []string
	var counts []int
	if flags&flagSeries != 0 {
		n := r.count("series", 2)
		names, counts = make([]string, 0, n), make([]int, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			names = append(names, r.string("series name"))
			c := r.uvarint("series count")
			// Each count is bounded by the entry's length here; together
			// they are bounded by the sample bytes below.
			if c > uint64(len(data)/sampleBytes) {
				return fail("series %q claims %d samples, %d bytes in the entry", names[i], c, len(data))
			}
			counts = append(counts, int(c))
		}
	}
	events := r.events()
	optimize := r.bytes("optimize")
	view := r.bytes("view")
	if r.err != nil {
		return fail("%w", r.err)
	}
	if len(view) < 2 || view[0] != '{' || view[len(view)-1] != '}' {
		return fail("report view is not a JSON object")
	}
	res := &Result{Report: rep, Events: events}
	if len(optimize) != 0 {
		res.Optimize = new(search.Report)
		if err := json.Unmarshal(optimize, res.Optimize); err != nil {
			return fail("optimize: %w", err)
		}
	}

	// The view is small beside the samples and lives as long as the
	// result, so it is always a copy: the entry's bytes are freed with
	// the samples' first use.
	view = bytes.Clone(view)
	samples := r.b
	if flags&flagSeries != 0 {
		block := samples
		for i, n := range counts {
			if n > len(samples)/sampleBytes {
				return fail("series %q claims %d samples, %d bytes left", names[i], n, len(samples))
			}
			if err := checkTimes(names[i], samples[:n*sampleBytes]); err != nil {
				return fail("%w", err)
			}
			samples = samples[n*sampleBytes:]
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
	res.digestOnce.Do(func() { res.digest = reportDigest })
	res.viewOnce.Do(func() { res.view = view })
	return res, nil
}

// reader reads an entry's fields in order. The first field that does not
// fit in the bytes left sets err, and every later read returns zero
// values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *reader) byte(what string) byte {
	if len(r.b) == 0 {
		r.failf("%s: truncated entry", what)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) uvarint(what string) uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.failf("%s: truncated or overlong varint", what)
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *reader) varint(what string) int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.failf("%s: truncated or overlong varint", what)
		return 0
	}
	r.b = r.b[k:]
	return v
}

// count reads the length of a list whose items take at least min bytes
// each, bounded by the bytes left.
func (r *reader) count(what string, min int) int {
	n := r.uvarint(what)
	if n > uint64(len(r.b)/min) {
		r.failf("%s: %d items, %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte section, which aliases the entry.
func (r *reader) bytes(what string) []byte {
	n := r.uvarint(what)
	if n > uint64(len(r.b)) {
		r.failf("%s: length %d, %d bytes left", what, n, len(r.b))
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) string(what string) string { return string(r.bytes(what)) }

// strings reads a list that may be nil, as appendStrings lays it out.
func (r *reader) strings(what string) []string {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n-1)
	for i := range ss {
		ss[i] = r.string(what)
	}
	return ss
}

// rows reads a list of rows, as appendRows lays it out.
func (r *reader) rows(what string) [][]string {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	rows := make([][]string, n-1)
	for i := range rows {
		rows[i] = r.strings(what)
	}
	return rows
}

// events reads the events section, as appendEvents lays it out. An entry
// without events decodes to nil.
func (r *reader) events() []lifecycle.Event {
	names := make([]string, r.count("event names", 1))
	for i := range names {
		names[i] = r.string("event name")
	}
	n := r.count("events", minEventBytes)
	if n == 0 {
		return nil
	}
	events := make([]lifecycle.Event, n)
	for i := range events {
		ev := &events[i]
		ev.Kind = lifecycle.EventKind(r.byte("event kind"))
		ev.Task = dag.TaskID(r.varint("event task"))
		if k := r.uvarint("event name"); k < uint64(len(names)) {
			ev.TaskName = names[k]
		} else {
			r.failf("event %d names task name %d of %d", i, k, len(names))
		}
		ev.Cycle = r.uvarint("event cycle")
		ev.Proc = int(r.varint("event processor"))
		if len(r.b) < 24 {
			r.failf("event %d: truncated entry", i)
		}
		if r.err != nil {
			return nil
		}
		ev.T = simtime.Time(math.Float64frombits(binary.LittleEndian.Uint64(r.b)))
		ev.SourceTime = simtime.Time(math.Float64frombits(binary.LittleEndian.Uint64(r.b[8:])))
		ev.Deadline = simtime.Time(math.Float64frombits(binary.LittleEndian.Uint64(r.b[16:])))
		r.b = r.b[24:]
	}
	return events
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
func checkTimes(name string, series []byte) error {
	prev := math.Inf(-1)
	for ; len(series) >= sampleBytes; series = series[sampleBytes:] {
		t := math.Float64frombits(binary.LittleEndian.Uint64(series))
		if t < prev {
			return fmt.Errorf("series %q time %v before %v", name, t, prev)
		}
		prev = t
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
