package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hcperf/internal/run"
	"hcperf/internal/store"
)

const (
	// hitConns is the caller count of both serve-hit phases, and the
	// connection count of the client (the box's two cores).
	hitConns = 2
	// hitWarmup requests run through the server before measuring, so the
	// memory tier holds its steady-state share of the working set.
	hitWarmup = 600
	// hitRate is the open-loop phase's fixed arrival rate, well under the
	// closed-loop capacity, so the phase measures latency, not backlog.
	hitRate = 100.0
	// hitCapShare is the share of --seconds given to the closed-loop
	// capacity phase; the open-loop phase gets the rest.
	hitCapShare = 0.25
	// lateLimitMS is how far the open-loop generator's median lateness may
	// grow from the first quarter of the phase to the last before the
	// phase counts as overloaded.
	lateLimitMS = 20.0
	// setupRepeats is how many times a run repeats its set-up; setup_s is
	// their median.
	setupRepeats = 5
)

// populate stores every working-set result in a fresh disk store under dir
// through run.Pipeline, the hcperf-sim -store pre-warm path, and records
// each request's digest and report digest.
func populate(items []*item, dir string) error {
	disk, err := store.OpenDisk(dir, 0, nil)
	if err != nil {
		return err
	}
	p := &run.Pipeline{Disk: disk}
	var next atomic.Int64
	errs := make([]error, hitConns)
	var wg sync.WaitGroup
	for w := 0; w < hitConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || errs[w] != nil {
					return
				}
				it := items[i]
				res, tier, id, err := p.Run(context.Background(), it.Req)
				if err == nil && tier != store.TierMiss {
					err = fmt.Errorf("fresh store answered from tier %s", tier)
				}
				var d string
				if err == nil {
					d, err = res.Report.Digest()
				}
				if err != nil {
					errs[w] = fmt.Errorf("populate rank %d: %w", it.Rank, err)
					return
				}
				if it.Digest != "" && (it.ID != id || it.Digest != d) {
					errs[w] = fmt.Errorf("populate rank %d: digest %s differs from the previous set-up's %s", it.Rank, d, it.Digest)
					return
				}
				it.ID, it.Digest = id, d
				it.Series, it.Volatile = res.Report.Series != nil, res.Report.Volatile
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hitObs is one serve-hit request as the client saw it.
type hitObs struct {
	rank   int
	span   int64
	sched  time.Time // when it was due (open loop) or sent (closed loop)
	sent   time.Time
	done   time.Time
	tier   string
	out    outcome
	stages *stageTimes // traced runs only
}

// stageTimes are the handler's internal stages, each timed by calling the
// same public function on the same request right after the response.
type stageTimes struct {
	handler, decode, normalize, digest, submit, diskGet, decodeResult, reportDigest, render time.Duration
	haveHandler, haveSubmit                                                                 bool
}

func (s *stageTimes) covered() time.Duration {
	return s.decode + s.normalize + s.digest + s.submit + s.diskGet + s.decodeResult + s.reportDigest + s.render
}

// hitLoad drives one server with the working set.
type hitLoad struct {
	t      *target
	items  []*item
	client *http.Client
	spanID atomic.Int64

	mu       sync.Mutex
	problems []string
}

func (h *hitLoad) problem(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.problems) < 20 {
		h.problems = append(h.problems, err.Error())
	}
}

func (h *hitLoad) send(rank int, sched time.Time) hitObs {
	it := h.items[rank]
	o := hitObs{rank: rank, sched: sched, sent: time.Now()}
	if h.t.spans != nil {
		o.span = h.spanID.Add(1)
	}
	code, body, done, err := do(h.client, http.MethodPost, h.t.base+"/v1/runs", it.Body, o.span)
	o.done = done
	if o.out = transportOutcome(code, err); o.out != outcomeOK {
		h.problem(fmt.Errorf("rank %d: status %d: %v %.200s", rank, code, err, body))
		return o
	}
	var cerr error
	o.tier, o.out, cerr = checkHit(it, code, body)
	if cerr != nil {
		h.problem(cerr)
	}
	if h.t.spans != nil && o.out == outcomeOK {
		o.stages = h.retime(it, o)
	}
	return o
}

// retime times the handler's stages for one answered request, calling the
// same public functions the handler calls, on the same request.
func (h *hitLoad) retime(it *item, o hitObs) *stageTimes {
	st := &stageTimes{}
	if s, ok := h.t.spans.handlerSpan(o.span); ok {
		st.handler, st.haveHandler = s.dur(), true
	}
	t := time.Now()
	var req run.Request
	dec := json.NewDecoder(bytes.NewReader(it.Body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	st.decode = time.Since(t)
	t = time.Now()
	norm, nerr := req.Normalize()
	st.normalize = time.Since(t)
	t = time.Now()
	id := norm.Digest()
	st.digest = time.Since(t)
	if err != nil || nerr != nil || id != it.ID {
		h.problem(fmt.Errorf("rank %d: re-decoded request digest %s, want %s (%v %v)", it.Rank, id, it.ID, err, nerr))
		return st
	}
	mgr := h.t.srv.Manager()
	if _, ok := mgr.Job(id); ok {
		// The job is resident after the handler answered, so this is the
		// memory path of Manager.Submit.
		t = time.Now()
		_, _, serr := mgr.Submit(norm)
		st.submit, st.haveSubmit = time.Since(t), serr == nil
	}
	if o.tier == string(store.TierDisk) {
		t = time.Now()
		data, ok := h.t.disk.Get(id)
		st.diskGet = time.Since(t)
		if ok {
			t = time.Now()
			_, err = run.DecodeResult(id, data)
			st.decodeResult = time.Since(t)
			if err != nil {
				h.problem(err)
			}
		}
	}
	job, ok := mgr.Job(id)
	if !ok {
		return st
	}
	snap := job.Snapshot()
	if snap.Result == nil || snap.Result.Report == nil {
		return st
	}
	t = time.Now()
	_, _ = snap.Result.Report.Digest()
	st.reportDigest = time.Since(t)
	t = time.Now()
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap.Result.Report.View(false))
	st.render = time.Since(t)
	return st
}

// closedLoop runs hitConns callers over seq (cycling) until the deadline,
// or until limit requests when limit > 0.
func (h *hitLoad) closedLoop(seq []int, d time.Duration, limit int) ([]hitObs, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var obs []hitObs
	var wg sync.WaitGroup
	for w := 0; w < hitConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []hitObs
			for {
				i := int(next.Add(1)) - 1
				if (limit > 0 && i >= limit) || (limit == 0 && time.Now().After(deadline)) {
					break
				}
				local = append(local, h.send(seq[i%len(seq)], time.Now()))
			}
			mu.Lock()
			obs = append(obs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return obs, time.Since(start)
}

// openLoop sends seq at a fixed rate from hitConns workers. Each request
// is timed from when it was due, so a stall also charges the requests it
// delays; the returned lateness says how far behind the workers ran.
func (h *hitLoad) openLoop(seq []int, rate float64) (obs []hitObs, late []float64) {
	start := time.Now().Add(10 * time.Millisecond)
	obs = make([]hitObs, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < hitConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				obs[i] = h.send(seq[i], due)
			}
		}()
	}
	wg.Wait()
	late = make([]float64, len(obs))
	for i, o := range obs {
		late[i] = ms(o.sent.Sub(o.sched))
	}
	return obs, late
}

// spinWindow is how long before a send is due the open-loop worker stops
// sleeping and yields in a loop instead: time.Sleep wakes up to a
// millisecond late, which would add the generator's lateness to every
// latency it measures.
const spinWindow = 1200 * time.Microsecond

// waitUntil returns at t, or at once when t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// account tallies a phase.
func account(name string, obs []hitObs) phaseCount {
	outs := make([]outcome, len(obs))
	for i, o := range obs {
		outs[i] = o.out
	}
	return tally(name, outs)
}

func latencies(obs []hitObs, keep func(hitObs) bool) []float64 {
	var xs []float64
	for _, o := range obs {
		if o.out == outcomeOK && (keep == nil || keep(o)) {
			xs = append(xs, ms(o.done.Sub(o.sched)))
		}
	}
	return xs
}

// hitSetup is one serve-hit set-up: a fresh store populated through the
// pipeline, a server booted on it, and the warm-up.
func hitSetup(o opts, items []*item, dir string, inProcess bool, seq []int) (*hitLoad, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := populate(items, dir); err != nil {
		return nil, err
	}
	return bootHit(o, items, dir, inProcess, seq)
}

// bootHit boots a server on an already populated store and warms it up.
func bootHit(o opts, items []*item, dir string, inProcess bool, seq []int) (*hitLoad, error) {
	var t *target
	var err error
	if inProcess {
		t, err = startInProcess(dir)
	} else {
		t, err = startBinary(o.serveBin, dir)
	}
	if err != nil {
		return nil, err
	}
	h := &hitLoad{t: t, items: items, client: newClient(hitConns)}
	warm, _ := h.closedLoop(seq, 0, hitWarmup)
	if p := account("warm-up", warm); p.bad() > 0 {
		_ = t.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", p.bad(), p.Sent, h.problems)
	}
	h.problems = nil
	return h, nil
}

// hitSequences returns the closed-loop sequence (long enough to cycle
// rarely) and the open-loop sequence of exactly rate × seconds requests.
func hitSequences(seed int64, openSeconds float64) (closed, open []int) {
	closed = sequence(zipfCounts(workingSetSize, zipfS, 20000), newRNG(seed, 3))
	n := int(hitRate * openSeconds)
	open = sequence(zipfCounts(workingSetSize, zipfS, n), newRNG(seed, 4))
	return closed, open
}

func seriesShare(items []*item, obs []hitObs) float64 {
	n, s := 0, 0
	for _, o := range obs {
		n++
		if items[o.rank].Series {
			s++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(s) / float64(n)
}

// runHit is the measured serve-hit run against the built hcperf-serve.
func runHit(o opts, r *result) error {
	items, err := workingSet(o.seed)
	if err != nil {
		return err
	}
	capDur := time.Duration(hitCapShare * o.seconds * float64(time.Second))
	closed, open := hitSequences(o.seed, (1-hitCapShare)*o.seconds)
	var setups setupTimes
	var h *hitLoad
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("hit-store-%d", i))
		err := setups.time(func() (time.Duration, error) {
			var err error
			if h, err = hitSetup(o, items, dir, false, closed); err != nil {
				return 0, err
			}
			return h.t.cpu(), nil
		})
		if err != nil {
			return err
		}
		if i < setupRepeats-1 {
			if err := h.t.stop(); err != nil {
				return err
			}
		}
	}
	defer func() { _ = h.t.stop() }()

	peaks, err := sampleRSSPeaks(h.t.pid)
	if err != nil {
		return err
	}
	cpu0 := h.t.cpu()
	capObs, capDur2 := h.closedLoop(closed, capDur, 0)
	openObs, late := h.openLoop(open, hitRate)
	cpu := h.t.cpu() - cpu0
	rss, err := peaks.finish()
	if err != nil {
		return err
	}
	capPC, openPC := account("hit-capacity", capObs), account("hit-open-loop", openObs)
	r.count(capPC)
	r.count(openPC)
	for _, p := range h.problems {
		r.fail("%s", p)
	}
	if lateGrowth(late, lateLimitMS) {
		r.fail("open-loop phase overloaded: generator lateness grew by more than %g ms through the window", lateLimitMS)
	}
	answers := capPC.OK + openPC.OK
	r.add("throughput_per_s", float64(answers)/cpu.Seconds(), "1/s", answers, "answers per server CPU-second")
	reportRSS(r, rss)
	setups.report(r, "populate + boot + warm-up")
	lat := latencies(openObs, nil)
	r.notePct("hit_p50_ms", lat, 0.5, "ms")
	r.notePct("hit_p99_ms", lat, 0.99, "ms")
	r.note("hit_capacity_rps", float64(capPC.OK)/capDur2.Seconds(), "1/s", capPC.Sent)
	r.notePct("hit.closed_loop_p50_ms", latencies(capObs, nil), 0.5, "ms")
	r.note("hit.series_share", seriesShare(items, openObs), "ratio", len(openObs))
	r.note("hit.disk_share", float64(len(latencies(openObs, func(ob hitObs) bool { return ob.tier == string(store.TierDisk) })))/float64(len(openObs)), "ratio", len(openObs))
	lp99, _ := quantile(append([]float64(nil), late...), 0.99)
	r.note("gen.late_p99_ms", lp99, "ms", len(late))
	return nil
}
