package service

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"hcperf/internal/store"
)

// The status body is the response of POST /v1/runs, POST /v1/optimize and
// the GETs of a run: one JSON object, indented by two spaces a level, with
// these fields in this order, each omitted when empty:
//
//	id, state, request, cached, deduped, submitted, queue_position,
//	elapsed_ms, report_digest, cache, report, progress, optimize,
//	trace_events, error
//
// Its bytes are what encoding/json's Encoder with SetIndent("", "  ")
// writes for the equivalent struct, which the status-body tests keep as
// their reference. The two large parts are rendered once: the request
// once per job (Job.requestJSON) and the report once per result
// (run.Result.ReportView), so a cache hit writes only the fields around
// them. The report with its samples (?series=1), an optimize job's
// progress and its search report are encoded per answer.

// answer is what one response adds to its job's snapshot.
type answer struct {
	cached, deduped bool
	// cache overrides the result's provenance: a submission answer
	// reports the tier that satisfied it, "miss" included.
	cache store.Tier
	// series adds the raw time series (GET with ?series=1).
	series bool
}

// submitted is the answer to a submission satisfied as outcome.
func submitted(outcome SubmitOutcome) answer {
	return answer{
		cached:  outcome == SubmitCached || outcome == SubmitCachedDisk,
		deduped: outcome == SubmitDeduped,
		cache:   outcome.Tier(),
	}
}

// writeStatus writes job j's status body with the given status code. Like
// writeJSON, it answers a body that cannot be encoded with the status line
// alone.
func (s *Server) writeStatus(w http.ResponseWriter, code int, j *Job, a answer) {
	snap := j.Snapshot()
	pos := -1
	if snap.State == StateQueued {
		pos = s.mgr.QueuePosition(snap.ID)
	}
	request, err := j.requestJSON()
	var body []byte
	if err == nil {
		body, err = appendStatus(nil, snap, request, pos, a)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(body) // a failed write means the client went away
	}
}

// appendStatus appends the status body of a job snapshot: request is the
// job's rendered request and pos its queue position (negative for none).
func appendStatus(b []byte, snap JobSnapshot, request []byte, pos int, a answer) ([]byte, error) {
	res := snap.Result
	if res != nil && res.Report == nil {
		res = nil // a result without a report renders as none
	}
	var report, progress, optimize []byte
	var err error
	if res != nil {
		if a.series {
			report, err = json.MarshalIndent(res.Report.View(true), "  ", "  ")
		} else {
			report, err = res.ReportView()
		}
		if err != nil {
			return b, err
		}
		if res.Optimize != nil {
			if optimize, err = json.MarshalIndent(res.Optimize, "  ", "  "); err != nil {
				return b, err
			}
		}
	}
	if snap.Progress != nil {
		if progress, err = json.MarshalIndent(snap.Progress, "  ", "  "); err != nil {
			return b, err
		}
	}

	// Room for the parts and the fields around them, so the body grows
	// once.
	b = slices.Grow(b, 320+len(snap.ID)+len(request)+len(report)+len(progress)+len(optimize))
	b = append(b, "{\n  \"id\": "...)
	b = appendString(b, snap.ID)
	b = append(b, ",\n  \"state\": "...)
	b = appendString(b, string(snap.State))
	b = append(b, ",\n  \"request\": "...)
	b = append(b, request...)
	if a.cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	if a.deduped {
		b = append(b, ",\n  \"deduped\": true"...)
	}
	if !snap.Submitted.IsZero() {
		var buf [64]byte
		b = append(b, ",\n  \"submitted\": "...)
		b = appendString(b, snap.Submitted.UTC().AppendFormat(buf[:0], time.RFC3339Nano))
	}
	if pos >= 0 {
		b = append(b, ",\n  \"queue_position\": "...)
		b = strconv.AppendInt(b, int64(pos), 10)
	}
	if !snap.Finished.IsZero() && !snap.Started.IsZero() {
		if ms := float64(snap.Finished.Sub(snap.Started)) / float64(time.Millisecond); ms != 0 {
			b = append(b, ",\n  \"elapsed_ms\": "...)
			b = appendFloat(b, ms)
		}
	}
	cache := a.cache
	if res != nil {
		if d, err := res.ReportDigest(); err == nil && d != "" {
			b = append(b, ",\n  \"report_digest\": "...)
			b = appendString(b, d)
		}
		if cache == "" {
			cache = snap.Source
		}
	}
	if cache != "" {
		b = append(b, ",\n  \"cache\": "...)
		b = appendString(b, string(cache))
	}
	if report != nil {
		b = append(b, ",\n  \"report\": "...)
		b = append(b, report...)
	}
	if progress != nil {
		b = append(b, ",\n  \"progress\": "...)
		b = append(b, progress...)
	}
	if optimize != nil {
		b = append(b, ",\n  \"optimize\": "...)
		b = append(b, optimize...)
	}
	if res != nil && len(res.Events) != 0 {
		b = append(b, ",\n  \"trace_events\": "...)
		b = strconv.AppendInt(b, int64(len(res.Events)), 10)
	}
	if snap.Err != nil {
		if msg := snap.Err.Error(); msg != "" {
			b = append(b, ",\n  \"error\": "...)
			b = appendString(b, msg)
		}
	}
	return append(b, "\n}\n"...), nil
}

// appendString appends s as encoding/json writes a string with HTML
// escaping on: quoted, with `"` and `\` escaped, control characters as \b,
// \f, \n, \r, \t or \u00XX, <, > and & as \u003c, \u003e and \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal, in exponent form only below 1e-6 or from 1e21 in
// magnitude, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
