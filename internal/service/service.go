package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/policy"
	"hcperf/internal/scenario"
	"hcperf/internal/search"
	"hcperf/internal/store"
	"hcperf/internal/version"
)

// Config sizes the HTTP server's job manager; see ManagerConfig for the
// field conventions and defaults.
type Config struct {
	Workers   int
	QueueSize int
	CacheSize int
	// Shards partitions the job map and result cache by digest (see
	// ManagerConfig.Shards; default 8).
	Shards int
	// Disk is the persistent result tier shared with the CLI's -store
	// flag; nil runs memory-only.
	Disk *store.Disk
	// Policy configures the resilience layer: per-client rate limiting on
	// the POST endpoints and the execute-stage circuit breaker.
	Policy PolicyConfig
	// Run overrides the execution function (tests only).
	Run RunFunc
}

// Server is the hcperf-serve HTTP API: run submission and retrieval, batch
// sweeps, registry listing, health, metrics and pprof.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	limiter *policy.Limiter // nil when rate limiting is disabled
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	// The breaker is on by default: it guards the execute stage only, so
	// cache and dedup hits keep flowing even while it is open.
	var breaker *policy.Breaker
	if !cfg.Policy.NoBreaker {
		breaker = policy.NewBreaker(cfg.Policy.Breaker)
	}
	s := &Server{
		mgr: NewManager(ManagerConfig{
			Workers:   cfg.Workers,
			QueueSize: cfg.QueueSize,
			CacheSize: cfg.CacheSize,
			Shards:    cfg.Shards,
			Run:       cfg.Run,
			Disk:      cfg.Disk,
			Breaker:   breaker,
		}),
		mux: http.NewServeMux(),
	}
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

// runStatus is the response body of POST /v1/runs, POST /v1/optimize and
// the corresponding GETs.
type runStatus struct {
	ID      string     `json:"id"`
	State   JobState   `json:"state"`
	Request RunRequest `json:"request"`
	Cached  bool       `json:"cached,omitempty"`
	Deduped bool       `json:"deduped,omitempty"`
	// Submitted is the enqueue timestamp (RFC 3339, UTC).
	Submitted string `json:"submitted,omitempty"`
	// QueuePosition is how many jobs are ahead of this one while it is
	// queued (0 = next to run); absent once it starts. A pointer so that
	// position zero still renders.
	QueuePosition *int    `json:"queue_position,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms,omitempty"`
	Digest        string  `json:"report_digest,omitempty"`
	// Cache is the result's provenance: "memory" when it was computed or
	// resident in this process, "disk" when it was restored from the
	// persistent store, "miss" on the submission response that scheduled
	// a fresh execution. Absent while the job is queued or running. The
	// same value rides in the X-HCPerf-Cache response header.
	Cache  store.Tier       `json:"cache,omitempty"`
	Report *experiment.View `json:"report,omitempty"`
	// Progress is the latest generation snapshot of a running optimize
	// job; Optimize is the structured search report once it completes.
	Progress *search.Progress `json:"progress,omitempty"`
	Optimize *search.Report   `json:"optimize,omitempty"`
	TraceLen int              `json:"trace_events,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// status renders a job snapshot; includeSeries controls whether the raw
// time series ride along (GET with ?series=1).
func (s *Server) status(snap JobSnapshot, includeSeries bool) runStatus {
	st := runStatus{ID: snap.ID, State: snap.State, Request: snap.Req, Progress: snap.Progress}
	if !snap.Submitted.IsZero() {
		st.Submitted = snap.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if snap.State == StateQueued {
		if pos := s.mgr.QueuePosition(snap.ID); pos >= 0 {
			st.QueuePosition = &pos
		}
	}
	if !snap.Finished.IsZero() && !snap.Started.IsZero() {
		st.ElapsedMS = float64(snap.Finished.Sub(snap.Started)) / float64(time.Millisecond)
	}
	if snap.Err != nil {
		st.Error = snap.Err.Error()
	}
	if snap.Result != nil && snap.Result.Report != nil {
		st.Report = snap.Result.Report.View(includeSeries)
		if d, err := snap.Result.ReportDigest(); err == nil {
			st.Digest = d
		}
		st.Cache = snap.Source
		st.Optimize = snap.Result.Optimize
		st.TraceLen = len(snap.Result.Events)
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	s.submit(w, req)
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

// submit normalizes and routes one request, writing the uniform submission
// response: 202 for new/deduped jobs, 200 when served from cache.
func (s *Server) submit(w http.ResponseWriter, req RunRequest) {
	req, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	job, outcome, err := s.mgr.Submit(req)
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
	st := s.status(job.Snapshot(), false)
	st.Cached = outcome == SubmitCached || outcome == SubmitCachedDisk
	st.Deduped = outcome == SubmitDeduped
	// The submission response reports which tier satisfied it — "miss"
	// for a fresh (or coalesced in-flight) execution — in both the body
	// and the X-HCPerf-Cache header, so curl -i is enough to check cache
	// provenance.
	st.Cache = outcome.Tier()
	w.Header().Set("X-HCPerf-Cache", string(outcome.Tier()))
	code := http.StatusAccepted
	if st.Cached {
		// The result (or terminal error) is already available.
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q (completed runs may have been evicted from the cache)", r.PathValue("id"))
		return
	}
	includeSeries := r.URL.Query().Get("series") == "1"
	writeJSON(w, http.StatusOK, s.status(job.Snapshot(), includeSeries))
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
