package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/store"
)

// maxSweepCells bounds one sweep's grid expansion. A sweep is a synchronous
// streamed request; anything larger belongs in multiple sweeps (the shared
// digest namespace makes re-submission free for completed cells).
const maxSweepCells = 512

// SweepRequest is the body of POST /v1/sweeps: a scenario-spec template
// plus a parameter grid. The grid maps dot-paths into the spec JSON (e.g.
// "seed", "duration", "coordinator.vruns") to the list of values that
// axis takes; the sweep runs the full cross product, each cell an ordinary
// job in the shared digest namespace.
type SweepRequest struct {
	Template json.RawMessage              `json:"template"`
	Grid     map[string][]json.RawMessage `json:"grid"`
}

// sweepCell is one expanded grid point, validated before anything streams.
type sweepCell struct {
	Index  int
	Params map[string]any
	Req    run.Request
	ID     string // Req's digest
}

// sweepAxis is one sorted grid dimension.
type sweepAxis struct {
	path   string
	values []json.RawMessage
}

// expandSweep validates the template and expands the grid cross product
// into normalized run requests. Axes iterate in sorted path order, first
// axis slowest, so cell order is deterministic for a given request.
func expandSweep(sr SweepRequest) ([]sweepCell, error) {
	if len(sr.Template) == 0 {
		return nil, fmt.Errorf("sweep: template is required")
	}
	axes := make([]sweepAxis, 0, len(sr.Grid))
	total := 1
	for path, values := range sr.Grid {
		if len(values) == 0 {
			return nil, fmt.Errorf("sweep: grid axis %q has no values", path)
		}
		axes = append(axes, sweepAxis{path: path, values: values})
		if total *= len(values); total > maxSweepCells {
			return nil, fmt.Errorf("sweep: grid expands past %d cells", maxSweepCells)
		}
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].path < axes[j].path })

	cells := make([]sweepCell, 0, total)
	idx := make([]int, len(axes)) // odometer over the axes, first slowest
	for i := 0; i < total; i++ {
		// A fresh template decode per cell: axis writes must not leak
		// between cells through shared nested maps.
		var tmpl map[string]any
		if err := json.Unmarshal(sr.Template, &tmpl); err != nil {
			return nil, fmt.Errorf("sweep: template is not a JSON object: %v", err)
		}
		params := make(map[string]any, len(axes))
		for a, ax := range axes {
			var v any
			if err := json.Unmarshal(ax.values[idx[a]], &v); err != nil {
				return nil, fmt.Errorf("sweep: axis %q value %d: %v", ax.path, idx[a], err)
			}
			if err := setPath(tmpl, ax.path, v); err != nil {
				return nil, fmt.Errorf("sweep: axis %q: %v", ax.path, err)
			}
			params[ax.path] = v
		}
		b, err := json.Marshal(tmpl)
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %d: %v", i, err)
		}
		// The strict spec decoder rejects unknown fields, so a typoed axis
		// path fails the whole sweep up front instead of silently running
		// identical cells.
		spec, err := scenario.DecodeSpec(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %v", i, fmtParams(params), err)
		}
		req, err := (run.Request{Spec: &spec}).Normalize()
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %v", i, fmtParams(params), err)
		}
		cells = append(cells, sweepCell{Index: i, Params: params, Req: req, ID: req.Digest()})
		for a := len(axes) - 1; a >= 0; a-- {
			if idx[a]++; idx[a] < len(axes[a].values) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// setPath writes v at a dot-path inside a decoded JSON object, creating
// intermediate objects as needed.
func setPath(m map[string]any, path string, v any) error {
	parts := strings.Split(path, ".")
	for _, p := range parts {
		if p == "" {
			return fmt.Errorf("empty path segment in %q", path)
		}
	}
	cur := m
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			child := make(map[string]any)
			cur[p] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path %q crosses non-object field %q", path, p)
		}
		cur = child
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// fmtParams renders a cell's axis assignment for error messages, sorted.
func fmtParams(params map[string]any) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, params[k])
	}
	return strings.Join(parts, " ")
}

// sweepCellEvent is one SSE `cell` event: the outcome of one grid point.
// Events are emitted strictly in cell-index order regardless of completion
// order.
type sweepCellEvent struct {
	Index        int            `json:"index"`
	Of           int            `json:"of"`
	ID           string         `json:"id"` // request digest; GET /v1/runs/{id}
	Cache        store.Tier     `json:"cache"`
	State        JobState       `json:"state"`
	ReportDigest string         `json:"report_digest,omitempty"`
	Params       map[string]any `json:"params"`
	Error        string         `json:"error,omitempty"`
}

// sweepDoneEvent is the final SSE `done` event.
type sweepDoneEvent struct {
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
}

// handleSweep expands the grid, validates every cell up front (any invalid
// cell fails the whole sweep with a 400 before anything runs), then submits
// the cells to the job manager exactly like single runs and streams one SSE
// event per cell in index order. At most the manager's worker count of a
// sweep's cells are outstanding at once: a sweep can keep every worker busy
// but never floods the queue with its own cells. A cell the manager refuses
// (queue full, draining) is a failed cell carrying that error. A client that
// goes away gets no further submissions; its cells already submitted finish
// and stay resident, like an abandoned single run.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		writeError(w, http.StatusBadRequest, "invalid sweep body: %v", err)
		return
	}
	cells, err := expandSweep(sr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.mgr.Draining() {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	window := s.mgr.workers
	writeSSE(w, "sweep", map[string]int{"cells": len(cells), "workers": window})
	fl.Flush()

	ctx := r.Context()
	events := make([]sweepCellEvent, len(cells))
	jobs := make([]*Job, len(cells))
	submitted := 0
	summary := sweepDoneEvent{Cells: len(cells)}
	for i := range cells {
		for ; submitted < len(cells) && submitted < i+window; submitted++ {
			if ctx.Err() != nil {
				return
			}
			events[submitted], jobs[submitted] = s.submitCell(cells[submitted], len(cells))
		}
		ev := events[i]
		if j := jobs[i]; j != nil {
			select {
			case <-j.Done():
			case <-ctx.Done():
				return
			}
			snap := j.Snapshot()
			ev.State = snap.State
			if snap.Err != nil {
				ev.Error = snap.Err.Error()
			}
			if snap.Result != nil && snap.Result.Report != nil {
				if d, err := snap.Result.ReportDigest(); err == nil {
					ev.ReportDigest = d
				}
			}
		}
		s.mgr.metrics.SweepCells.Add(1)
		if ev.State == StateDone {
			summary.Completed++
		} else {
			summary.Failed++
		}
		if ev.Cache != store.TierMiss {
			s.mgr.metrics.SweepCacheHits.Add(1)
			summary.CacheHits++
		}
		writeSSE(w, "cell", ev)
		fl.Flush()
	}
	writeSSE(w, "done", summary)
	fl.Flush()
}

// submitCell submits one validated cell through the job manager. It returns
// the cell's event so far and its job, or a failed event and no job when the
// manager refuses the submission.
func (s *Server) submitCell(c sweepCell, of int) (sweepCellEvent, *Job) {
	ev := sweepCellEvent{Index: c.Index, Of: of, Params: c.Params, Cache: store.TierMiss, State: StateFailed}
	j, outcome, err := s.mgr.submit(&submission{req: c.Req, id: c.ID})
	if err != nil {
		ev.ID, ev.Error = c.ID, err.Error()
		return ev, nil
	}
	ev.ID, ev.Cache = j.ID, outcome.Tier()
	return ev, j
}

// writeSSE renders one server-sent event with a JSON payload.
func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Event payloads are plain structs; a marshal failure is a
		// programming error, but the stream must stay parseable.
		b = []byte(`{}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
