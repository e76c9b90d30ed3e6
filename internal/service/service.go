package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/policy"
	"hcperf/internal/scenario"
	"hcperf/internal/search"
	"hcperf/internal/store"
	"hcperf/internal/version"
)

// Config sizes the server and its job manager; zero sizes take the
// Default* constants.
type Config struct {
	// Workers is the execution pool size.
	Workers int
	// QueueSize bounds the submission queue; a full queue sheds load with
	// ErrQueueFull.
	QueueSize int
	// CacheSize is the number of terminal runs the memory tier keeps;
	// evicted runs are restored from Disk or re-executed on resubmission.
	CacheSize int
	// Disk is the persistent result tier shared with the CLI's -store
	// flag; nil runs memory-only.
	Disk *store.Disk
	// Policy configures the resilience layer: per-client rate limiting on
	// the POST endpoints and the execute-stage circuit breaker.
	Policy PolicyConfig
	// Run overrides the execution function (default Execute; tests
	// inject controllable fakes here).
	Run RunFunc
}

// Server is the hcperf-serve HTTP API: run submission and retrieval, batch
// sweeps, registry listing, health, metrics and pprof.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	limiter *policy.Limiter // nil when rate limiting is disabled
	memo    *bodyMemo
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{mgr: NewManager(cfg), mux: http.NewServeMux(), memo: newBodyMemo()}
	if cfg.Policy.RateLimit > 0 {
		burst := cfg.Policy.RateBurst
		if burst <= 0 {
			burst = 2 * cfg.Policy.RateLimit
		}
		s.limiter = policy.NewLimiter(policy.LimiterConfig{Rate: cfg.Policy.RateLimit, Burst: burst})
	}
	// Only the submission (POST) endpoints are rate-limited: GETs are
	// cheap map lookups, and limiting /metrics or /healthz would blind the
	// very probes meant to watch an overloaded server.
	s.mux.HandleFunc("POST /v1/runs", s.limited(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleGetTrace)
	s.mux.HandleFunc("POST /v1/optimize", s.limited(s.handleOptimize))
	s.mux.HandleFunc("GET /v1/optimize/{id}", s.handleGetRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.limited(s.handleSweep))
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Everything else gets the same JSON error envelope as handler
	// failures, so clients never have to parse a text/plain 404.
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// handleNotFound is the catch-all route: a uniform JSON 404 for unknown
// paths (the per-resource handlers produce their own JSON 404s for unknown
// IDs).
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no such endpoint %s %s", r.Method, r.URL.Path)
}

// Handler returns the routed handler (httptest mounts this directly).
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager, e.g. for the drain path in main.
func (s *Server) Manager() *Manager { return s.mgr }

// apiError is the uniform JSON error body every non-2xx response carries.
type apiError struct {
	Error struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	var body apiError
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already written; nothing left to do on error
}

// handleSubmit answers a body the memo holds from it. Any other body is
// decoded as a stream: a body of at most memoMaxBody bytes from the bytes
// read so far, and a longer one with them read back first, so the memo
// changes no answer. A body that decodes and normalizes cleanly is offered
// to the memo.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, whole := readBody(r)
	if whole {
		if sub := s.memo.lookup(body); sub != nil {
			s.mgr.metrics.MemoHits.Add(1)
			s.route(w, sub)
			return
		}
		s.mgr.metrics.MemoMisses.Add(1)
	}
	var src io.Reader = bytes.NewReader(body)
	if !whole {
		src = io.MultiReader(src, r.Body)
	}
	var req RunRequest
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	req, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if !whole {
		s.route(w, &submission{req: req, id: req.Digest()})
		return
	}
	s.route(w, s.memo.offer(body, req, req.Digest()))
}

// readBody reads at most memoMaxBody+1 bytes of r's body and reports
// whether they are all of it. A read error ends the bytes early, and the
// decoder that reads on meets it.
func readBody(r *http.Request) ([]byte, bool) {
	size := 512
	if n := r.ContentLength; n > 0 && n <= memoMaxBody {
		size = int(n) + 1 // room to read the end without growing
	}
	b := make([]byte, 0, size)
	lr := &io.LimitedReader{R: r.Body, N: memoMaxBody + 1}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			return b, err == io.EOF && len(b) <= memoMaxBody
		}
	}
}

// handleOptimize accepts a bare search.Request body — shorthand for
// POST /v1/runs with {"optimize": ...} — so tuning clients never deal with
// the run-request envelope. The job lands in the same queue, cache and
// digest namespace.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var rq search.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		writeError(w, http.StatusBadRequest, "invalid optimize request body: %v", err)
		return
	}
	s.submit(w, RunRequest{Optimize: &rq})
}

// submit normalizes and routes one request.
func (s *Server) submit(w http.ResponseWriter, req RunRequest) {
	req, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	s.route(w, &submission{req: req, id: req.Digest()})
}

// route submits one normalized request and writes the uniform submission
// response: 202 for new/deduped jobs, 200 when served from cache.
func (s *Server) route(w http.ResponseWriter, sub *submission) {
	job, outcome, err := s.mgr.submit(sub)
	switch {
	case err == nil:
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err == ErrDraining:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The submission response reports which tier satisfied it — "miss"
	// for a fresh (or coalesced in-flight) execution — in both the body
	// and the X-HCPerf-Cache header, so curl -i is enough to check cache
	// provenance.
	a := submitted(outcome)
	w.Header().Set("X-HCPerf-Cache", string(a.cache))
	code := http.StatusAccepted
	if a.cached {
		// The result (or terminal error) is already available.
		code = http.StatusOK
	}
	s.writeStatus(w, code, job, a)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q (completed runs may have been evicted from the cache)", r.PathValue("id"))
		return
	}
	s.writeStatus(w, http.StatusOK, job, answer{series: r.URL.Query().Get("series") == "1"})
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	snap := job.Snapshot()
	if !snap.State.Terminal() {
		writeError(w, http.StatusConflict, "run %q is %s; trace is available once it completes", snap.ID, snap.State)
		return
	}
	if snap.Result == nil || len(snap.Result.Events) == 0 {
		writeError(w, http.StatusNotFound, "run %q captured no lifecycle trace (submit a scenario run with \"trace\": true)", snap.ID)
		return
	}
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		err = lifecycle.WriteCSV(w, snap.Result.Events)
	case "", "chrome", "json":
		w.Header().Set("Content-Type", "application/json")
		err = lifecycle.WriteChromeTrace(w, snap.Result.Events)
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want csv or chrome)", format)
		return
	}
	// A write error here means the stream broke mid-body (client went
	// away); the status line is long gone, so there is nothing to send.
	_ = err
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []experiment.Info `json:"experiments"`
		Scenarios   []string          `json:"scenarios"`
	}{
		Experiments: experiment.List(),
		Scenarios:   scenarioList(),
	})
}

// scenarioList returns the scenario run kinds, sorted — the same
// deterministic-listing discipline as the experiment registry.
func scenarioList() []string {
	out := append([]string(nil), scenario.ScenarioNames()...)
	sort.Strings(out)
	return out
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.mgr.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// The exposition is rendered in one buffer, so a write error means the
	// client went away — nothing to report.
	_ = s.mgr.Metrics().WritePrometheus(w, s.liveStats())
}
