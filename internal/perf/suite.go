package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hcperf/examples/specs"
	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/experiment"
	"hcperf/internal/fleet"
	"hcperf/internal/hungarian"
	"hcperf/internal/lifecycle"
	"hcperf/internal/mfc"
	"hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/sched"
	"hcperf/internal/service"
	"hcperf/internal/simtime"
	"hcperf/internal/store"
	"hcperf/internal/trace"
)

// Bench is one named entry of the gated benchmark suite.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the benchmarks the perf baseline tracks: the hot paths the
// dispatch-layer optimisations target (γ search, dispatch selection,
// Hungarian matching one-shot vs. reused Solver, a full engine second per
// policy, one controller step), a single run's execute stage, the report
// digest a result computes once, the disk codec every stored result passes
// through, what a disk answer pays before it renders, a whole memory-hit
// and disk-hit answer, and the normalize stage of a spec request.
// Names are stable identifiers — they key the baseline JSON, so renaming
// one invalidates the checked-in baseline.
func Suite() []Bench {
	return []Bench{
		{"DynamicSelect/queue=32", func(b *testing.B) { benchDynamicSelect(b, 32) }},
		{"GammaSearch/queue=8", func(b *testing.B) { benchGammaSearch(b, 8) }},
		{"GammaSearch/queue=128", func(b *testing.B) { benchGammaSearch(b, 128) }},
		{"HungarianSolve/n=23", func(b *testing.B) { benchHungarianOneShot(b, 23) }},
		{"HungarianSolver/n=23", func(b *testing.B) { benchHungarianReuse(b, 23) }},
		{"EngineSecond/EDF", func(b *testing.B) {
			benchEngineSecond(b, func() sched.Scheduler { return sched.EDF{} })
		}},
		{"EngineSecond/HCPerf", func(b *testing.B) {
			benchEngineSecond(b, func() sched.Scheduler { return sched.NewDynamic(0) })
		}},
		{"MFCStep", benchMFCStep},
		{"FleetSecond/N=16", func(b *testing.B) { benchFleetSecond(b, 16) }},
		{"FleetSecond/N=256", func(b *testing.B) { benchFleetSecond(b, 256) }},
		{"FleetSecond/N=1024", func(b *testing.B) { benchFleetSecond(b, 1024) }},
		{"SimtimeSchedule", benchSimtimeSchedule},
		{"SimtimeTickerChurn", benchSimtimeTickerChurn},
		{"Execute/fusion-overload", benchExecute},
		{"ReportDigest/samples=20000", func(b *testing.B) { benchReportDigest(b, carFollowingReport(b, 20000)) }},
		{"ReportDigest/fusion-overload", func(b *testing.B) { benchReportDigest(b, fusionOverloadReport(b)) }},
		{"ResultCodec/encode/samples=20000", func(b *testing.B) { benchResultEncode(b, 20000) }},
		{"ResultCodec/decode/samples=20000", func(b *testing.B) { benchResultDecode(b, 20000) }},
		{"DiskRestore/samples=20000", func(b *testing.B) { benchDiskRestore(b, 20000) }},
		{"SubmitBody/memory-hit", benchSubmitMemoryHit},
		{"SubmitBody/disk-hit", benchSubmitDiskHit},
		{"SpecNormalize/fusion-overload", benchSpecNormalize},
	}
}

// carFollowingReport is the deterministic report the digest and codec
// pins share, shaped like a car-following one: samples dealt round-robin
// over 13 series on one 10 ms time base, with full-precision values.
func carFollowingReport(tb testing.TB, samples int) *experiment.Report {
	names := []string{
		"tracking_err_sample", "u", "gamma", "lead_speed", "follow_speed", "speed_err", "gap",
		"dist_err", "throughput", "response_ms", "discomfort", "miss_ratio", "queue_len",
	}
	rec := trace.NewRecorder()
	hs := make([]trace.Handle, len(names))
	for i, name := range names {
		hs[i] = rec.Handle(name, (samples+len(names)-1)/len(names))
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < samples; k++ {
		t := float64(k/len(names)) * 0.01
		if err := hs[k%len(names)].Add(t, rng.NormFloat64()*10); err != nil {
			tb.Fatal(err)
		}
	}
	return &experiment.Report{
		ID:     "run-carfollow",
		Title:  "Car following",
		Header: []string{"quantity", "value"},
		Rows:   [][]string{{"rms_tracking_err", "0.25"}},
		Series: rec,
	}
}

// fusionOverloadRequest is the normalized request of
// examples/specs/fusion-overload.json.
func fusionOverloadRequest(tb testing.TB) run.Request {
	spec, err := scenario.DecodeSpec(bytes.NewReader(specs.FusionOverload))
	if err != nil {
		tb.Fatal(err)
	}
	req, err := run.Request{Spec: &spec}.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// fusionOverloadReport is the report of one run.Execute of
// examples/specs/fusion-overload.json, shaped like every serve-cold
// result: 16 series on three time bases of accumulated times such as
// 29.99000000000189.
func fusionOverloadReport(tb testing.TB) *experiment.Report {
	res, err := run.Execute(context.Background(), fusionOverloadRequest(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return res.Report
}

// benchExecute measures run.Execute of the fusion-overload spec: the
// execute stage of a serve-cold single run, series recording included.
func benchExecute(b *testing.B) {
	req := fusionOverloadRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Execute(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// codecDigest is the request digest the codec pins store their entry
// under.
const codecDigest = "e147c7de9e87627b60fd50ce3a2de8685590a66a42cb5b85a7f2d9c68b104d04"

// benchReportDigest measures Report.Digest, the series CSV kernel a
// result pays once, when it is first persisted or rendered.
func benchReportDigest(b *testing.B, rep *experiment.Report) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResultEncode measures run.EncodeResult, which every fresh
// execution pays before it is stored on disk. The report digest the entry
// carries is memoized in set-up, so the pin times the codec alone; the
// digest has its own pin.
func benchResultEncode(b *testing.B, samples int) {
	res := &run.Result{Report: carFollowingReport(b, samples)}
	if _, err := res.ReportDigest(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.EncodeResult(codecDigest, res); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResultDecode measures run.DecodeResult, which every answer read
// from the disk tier pays.
func benchResultDecode(b *testing.B, samples int) {
	data := encodedReport(b, samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.DecodeResult(codecDigest, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiskRestore measures what a disk answer pays before it renders:
// run.DecodeResult plus the report digest the response carries.
func benchDiskRestore(b *testing.B, samples int) {
	data := encodedReport(b, samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run.DecodeResult(codecDigest, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.ReportDigest(); err != nil {
			b.Fatal(err)
		}
	}
}

// encodedReport is the disk entry of carFollowingReport(samples).
func encodedReport(tb testing.TB, samples int) []byte {
	data, err := run.EncodeResult(codecDigest, &run.Result{Report: carFollowingReport(tb, samples)})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// residentFig13 is a server holding fig13's result in its memory tier,
// computed once per process.
var residentFig13 = sync.OnceValues(func() (*service.Server, error) {
	srv := service.New(service.Config{Workers: 1})
	req, err := run.Request{Experiment: "fig13"}.Normalize()
	if err != nil {
		return nil, err
	}
	j, _, err := srv.Manager().Submit(req)
	if err != nil {
		return nil, err
	}
	<-j.Done()
	if err := j.Snapshot().Err; err != nil {
		return nil, err
	}
	return srv, nil
})

// discardResponse is a reusable http.ResponseWriter that keeps nothing.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// rewindBody is a request body the benchmark rewinds between requests.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// submitter posts its bodies in turn to a server's handler, each a POST
// /v1/runs request built once with httptest and rewound for every answer.
type submitter struct {
	h      http.Handler
	w      *discardResponse
	bodies [][]byte
	reqs   []*http.Request
	rw     []rewindBody
}

func newSubmitter(h http.Handler, bodies ...string) *submitter {
	s := &submitter{h: h, w: &discardResponse{header: http.Header{}}}
	for _, body := range bodies {
		rw := rewindBody{bytes.NewReader([]byte(body))}
		s.bodies = append(s.bodies, []byte(body))
		s.reqs = append(s.reqs, httptest.NewRequest(http.MethodPost, "/v1/runs", rw))
		s.rw = append(s.rw, rw)
	}
	return s
}

// post answers body i.
func (s *submitter) post(i int) {
	s.rw[i].Reset(s.bodies[i])
	s.h.ServeHTTP(s.w, s.reqs[i])
}

// benchSubmitMemoryHit measures one answer of POST /v1/runs for a body the
// request-body memo holds, whose result, fig13's, is resident: memo
// lookup, memory lookup and the status body.
func benchSubmitMemoryHit(b *testing.B) {
	srv, err := residentFig13()
	if err != nil {
		b.Fatal(err)
	}
	s := newSubmitter(srv.Handler(), `{"experiment": "fig13"}`)
	s.post(0)
	s.post(0) // the second sighting enters the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.post(0)
	}
	b.StopTimer()
	if got := s.w.header.Get("X-HCPerf-Cache"); got != string(store.TierMemory) {
		b.Fatalf("answer came from tier %q, want memory", got)
	}
}

// benchSubmitDiskHit measures one answer of POST /v1/runs for a body the
// request-body memo holds, whose result is on disk only: two bodies whose
// entries hold carFollowingReport(20000) take turns through a memory tier
// of one, so each answer reads, checks and decodes its entry and writes
// the status body.
func benchSubmitDiskHit(b *testing.B) {
	disk, err := store.OpenDisk(b.TempDir(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bodies := []string{`{"scenario": "carfollow", "seed": 1}`, `{"scenario": "carfollow", "seed": 2}`}
	for _, body := range bodies {
		var req run.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			b.Fatal(err)
		}
		if req, err = req.Normalize(); err != nil {
			b.Fatal(err)
		}
		if err := run.SaveDisk(disk, req.Digest(), &run.Result{Report: carFollowingReport(b, 20000)}); err != nil {
			b.Fatal(err)
		}
	}
	srv := service.New(service.Config{Workers: 1, CacheSize: 1, Disk: disk, Run: func(context.Context, run.Request) (*run.Result, error) {
		return nil, errors.New("perf: a disk-hit answer executed")
	}})
	b.Cleanup(func() { _ = srv.Manager().Shutdown(context.Background()) })
	s := newSubmitter(srv.Handler(), bodies...)
	for range 2 {
		s.post(0)
		s.post(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.post(i % 2)
	}
	b.StopTimer()
	if got := s.w.header.Get("X-HCPerf-Cache"); got != string(store.TierDisk) {
		b.Fatalf("answer came from tier %q, want disk", got)
	}
}

// benchSpecNormalize measures Spec.Normalize of the fusion-overload spec,
// whose load window and rate overrides take the dry run.
func benchSpecNormalize(b *testing.B) {
	spec, err := scenario.DecodeSpec(bytes.NewReader(specs.FusionOverload))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Normalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimtimeSchedule measures raw schedule+step churn on a warm event
// queue — its steady state, which must stay 0 allocs/op.
func benchSimtimeSchedule(b *testing.B) {
	q := simtime.NewEventQueue()
	fn := func(simtime.Time) {}
	for i := 0; i < 64; i++ {
		if err := q.After(0.001, fn); err != nil {
			b.Fatal(err)
		}
	}
	for q.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.After(0.004, fn); err != nil {
			b.Fatal(err)
		}
		q.Step()
	}
}

// benchSimtimeTickerChurn drives the kernel's dominant workload shape: 32
// tickers with HCPerf-like periods sharing one queue for one simulated
// second.
func benchSimtimeTickerChurn(b *testing.B) {
	periods := []simtime.Duration{0.008, 0.010, 0.0125, 0.020, 0.025, 0.040, 0.050, 0.125}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := simtime.NewEventQueue()
		for t := 0; t < 32; t++ {
			if err := q.NewTicker(0, periods[t%len(periods)], func(simtime.Time) {}); err != nil {
				b.Fatal(err)
			}
		}
		q.RunUntil(1)
	}
}

// RunSuite runs every suite benchmark via testing.Benchmark and returns the
// collected baseline. benchtime sets the standard -test.benchtime value
// (e.g. "100x" for a fixed iteration count, "1s" for a duration); empty
// keeps the harness default. It works from a plain binary (hcperf-bench) as
// well as from inside a test.
func RunSuite(benchtime string) (*Baseline, error) {
	if benchtime != "" {
		// In a non-test binary the testing flags are unregistered until
		// testing.Init; inside a test binary they already exist and a
		// second Init would panic on re-registration.
		if flag.Lookup("test.benchtime") == nil {
			testing.Init()
		}
		if err := flag.Set("test.benchtime", benchtime); err != nil {
			return nil, fmt.Errorf("perf: setting benchtime %q: %w", benchtime, err)
		}
	}
	base := &Baseline{Benchtime: benchtime}
	for _, bench := range Suite() {
		r := testing.Benchmark(bench.Fn)
		if r.N == 0 {
			return nil, fmt.Errorf("perf: benchmark %s did not run (failed inside testing.Benchmark?)", bench.Name)
		}
		base.Results = append(base.Results, Result{
			Name:        bench.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		})
	}
	base.Sort()
	return base, nil
}

// RunSuiteBest runs the suite repeat times and keeps, per benchmark, the
// result with the lowest ns/op. Minimum-of-N is the standard noise-robust
// benchmark estimator: scheduler preemption, frequency scaling and cache
// pollution only ever add time, so the minimum is the closest observable to
// the true cost. allocs/op and B/op are deterministic across runs, so the
// choice of run does not disturb them.
func RunSuiteBest(benchtime string, repeat int) (*Baseline, error) {
	if repeat < 1 {
		repeat = 1
	}
	best, err := RunSuite(benchtime)
	if err != nil {
		return nil, err
	}
	for r := 1; r < repeat; r++ {
		next, err := RunSuite(benchtime)
		if err != nil {
			return nil, err
		}
		for i := range best.Results {
			if n := next.Lookup(best.Results[i].Name); n != nil && n.NsPerOp < best.Results[i].NsPerOp {
				best.Results[i] = *n
			}
		}
	}
	return best, nil
}

// suiteJobs builds a deterministic pseudo-random ready queue of n jobs, the
// same shape the top-level micro-benchmarks use.
func suiteJobs(n int) []*sched.Job {
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		d := simtime.Duration(0.02 + rng.Float64()*0.08)
		jobs[i] = &sched.Job{
			Task: &dag.Task{
				ID:          dag.TaskID(i),
				Name:        fmt.Sprintf("t%d", i),
				Priority:    rng.Intn(23) + 1,
				RelDeadline: d,
				Exec:        exectime.Constant(simtime.Duration(0.002 + rng.Float64()*0.02)),
			},
			Release:     simtime.Time(rng.Float64() * 0.01),
			AbsDeadline: simtime.Time(rng.Float64()*0.01) + d,
			EstExec:     simtime.Duration(0.002 + rng.Float64()*0.02),
		}
	}
	return jobs
}

func benchDynamicSelect(b *testing.B, n int) {
	b.ReportAllocs()
	jobs := suiteJobs(n)
	dyn := sched.NewDynamic(0.02)
	dyn.SetNominalU(0.01)
	st := &sched.ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	dyn.Recompute(0, jobs, st)
	dyn.Gamma() // run the search outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx := dyn.Select(0, jobs, 0, st); idx < 0 {
			b.Fatal("no job selected")
		}
	}
}

func benchGammaSearch(b *testing.B, n int) {
	b.ReportAllocs()
	jobs := suiteJobs(n)
	dyn := sched.NewDynamic(0.02)
	dyn.SetNominalU(0.01)
	st := &sched.ProcState{NumProcs: 2, Remaining: make([]simtime.Duration, 2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Recompute captures the queue; the search runs at the read.
		dyn.Recompute(0, jobs, st)
		dyn.Gamma()
	}
}

// suiteCost builds a deterministic n x n cost matrix.
func suiteCost(n int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	return cost
}

func benchHungarianOneShot(b *testing.B, n int) {
	b.ReportAllocs()
	cost := suiteCost(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hungarian.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHungarianReuse(b *testing.B, n int) {
	b.ReportAllocs()
	cost := suiteCost(n)
	var s hungarian.Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngineSecond(b *testing.B, mk func() sched.Scheduler) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dag.ADGraph23()
		if err != nil {
			b.Fatal(err)
		}
		q := simtime.NewEventQueue()
		eng, err := engine.New(engine.Config{
			Kernel:   lifecycle.Config{Graph: g, Scheduler: mk(), Seed: 1},
			NumProcs: 2,
			Queue:    q,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		q.RunUntil(1)
	}
}

// benchFleetSecond measures one simulated second of an N-vehicle
// platoon-coupled fleet — N full closed loops (engine, coordinator,
// vehicle dynamics), one after another on one event queue, the fleet
// layer's end-to-end hot path.
func benchFleetSecond(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(fleet.Config{
			Base:     scenario.CarFollowingConfig{Loop: scenario.Loop{Scheme: scenario.SchemeHCPerf, Duration: 1}},
			N:        n,
			Coupling: scenario.FleetCouplingPlatoon,
			Spacing:  18,
			Seed:     1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMFCStep(b *testing.B) {
	b.ReportAllocs()
	c, err := mfc.New(mfc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(simtime.Time(i)*100*simtime.Millisecond, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}
