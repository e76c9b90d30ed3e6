// Package experiment regenerates every table and figure of the HCPerf
// evaluation (paper §VII). Each experiment is a named, seeded, deterministic
// run that returns a Report holding paper-style rows next to the values the
// paper published, plus the raw time series needed to re-plot the figures.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hcperf/internal/trace"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the registry key, e.g. "table2" or "fig13".
	ID string
	// Title describes the experiment.
	Title string
	// Header labels the measured columns.
	Header []string
	// Rows holds the measured values, one row per scheme or condition.
	Rows [][]string
	// PaperRows holds the corresponding values published in the paper
	// (empty when the paper gives no directly comparable numbers).
	PaperRows [][]string
	// Notes records deviations, substitutions and interpretation hints.
	Notes []string
	// Series holds raw time series for figure regeneration (may be nil).
	Series *trace.Recorder
	// Volatile marks reports whose Rows carry wall-clock-derived values
	// (e.g. the coordinator overhead measurement) and therefore legitimately
	// differ between runs; Digest skips the Rows of volatile reports so the
	// determinism harness still covers their structure.
	Volatile bool
}

// Digest returns a canonical SHA-256 over everything the report renders:
// ID, title, header, measured rows (unless Volatile), paper rows, notes and
// the full series CSV. Two reports with equal digests produce byte-identical
// WriteText and WriteCSV output, which is the invariant the determinism
// harness (internal/runner) enforces between serial and parallel runs.
func (r *Report) Digest() (string, error) {
	h := sha256.New()
	put := func(field string, cells ...string) {
		// Length-prefix every cell so cell boundaries cannot alias.
		fmt.Fprintf(h, "%s:%d;", field, len(cells))
		for _, c := range cells {
			fmt.Fprintf(h, "%d:%s;", len(c), c)
		}
	}
	put("id", r.ID)
	put("title", r.Title)
	put("header", r.Header...)
	if r.Volatile {
		put("rows", "volatile")
	} else {
		for _, row := range r.Rows {
			put("row", row...)
		}
	}
	for _, row := range r.PaperRows {
		put("paper", row...)
	}
	put("notes", r.Notes...)
	if r.Series != nil {
		if err := r.Series.WriteCSV(h); err != nil {
			return "", fmt.Errorf("experiment: digest series: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		writeTable(&b, "measured", r.Header, r.Rows)
	}
	if len(r.PaperRows) > 0 {
		writeTable(&b, "paper", r.Header, r.PaperRows)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeTable(b *strings.Builder, label string, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(b, "[%s]\n", label)
	for i, h := range header {
		fmt.Fprintf(b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteString("\n")
	}
}

// WriteCSV writes the report's series (if any) to dir/<id>.csv and its
// measured rows to dir/<id>_rows.csv.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	if r.Series != nil {
		f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
		if err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
		defer f.Close()
		if err := r.Series.WriteCSV(f); err != nil {
			return err
		}
	}
	if len(r.Rows) > 0 {
		f, err := os.Create(filepath.Join(dir, r.ID+"_rows.csv"))
		if err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
		defer f.Close()
		rows := append([][]string{r.Header}, r.Rows...)
		for _, row := range rows {
			if _, err := fmt.Fprintln(f, strings.Join(row, ",")); err != nil {
				return err
			}
		}
	}
	return nil
}

// Func runs one experiment with the given base seed, fanning its internal
// sweeps across workers.
type Func func(seed int64, workers int) (*Report, error)

// SeriesPoint is one sample of an exported time series.
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// View is the JSON-serializable form of a Report: the same content
// WriteText renders, plus (optionally) the raw series keyed by name in
// recording order. It is what the serving layer returns from
// GET /v1/runs/{id}.
type View struct {
	ID        string                   `json:"id"`
	Title     string                   `json:"title"`
	Header    []string                 `json:"header,omitempty"`
	Rows      [][]string               `json:"rows,omitempty"`
	PaperRows [][]string               `json:"paper_rows,omitempty"`
	Notes     []string                 `json:"notes,omitempty"`
	Volatile  bool                     `json:"volatile,omitempty"`
	SeriesIdx []string                 `json:"series_names,omitempty"`
	Series    map[string][]SeriesPoint `json:"series,omitempty"`
}

// View converts the report for serialization. Series data is included only
// when includeSeries is set — the series are by far the largest part of a
// report, and status polls don't need them.
func (r *Report) View(includeSeries bool) *View {
	v := &View{
		ID:        r.ID,
		Title:     r.Title,
		Header:    r.Header,
		Rows:      r.Rows,
		PaperRows: r.PaperRows,
		Notes:     r.Notes,
		Volatile:  r.Volatile,
	}
	if r.Series != nil {
		v.SeriesIdx = r.Series.Names()
		if includeSeries {
			v.Series = make(map[string][]SeriesPoint, len(v.SeriesIdx))
			for _, name := range v.SeriesIdx {
				s := r.Series.Series(name)
				pts := make([]SeriesPoint, len(s.Samples))
				for i, p := range s.Samples {
					pts[i] = SeriesPoint{T: p.T, V: p.V}
				}
				v.Series[name] = pts
			}
		}
	}
	return v
}
