package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hcperf/internal/run"
	"hcperf/internal/store"
)

const (
	// coldPoll is the single-run caller's fixed status-poll interval.
	coldPoll = 5 * time.Millisecond
	// sweepCells is the cell count of every serve-cold sweep.
	sweepCells = 8
	// coldSample is how many single runs and how many sweep cells are
	// re-executed in process after the window to check their digests.
	coldSample = 4
	// coldRunTimeout bounds one single run or sweep.
	coldRunTimeout = 60 * time.Second
)

// Caller streams of the cold generator: warm-up, single runs and sweeps
// draw disjoint seeds.
const (
	streamWarm = iota + 1
	streamRuns
	streamSweeps
)

// coldRun is one single run as the caller saw it.
type coldRun struct {
	body   []byte
	id     string
	digest string
	start  time.Time
	done   time.Time
	polls  int
	out    outcome
	layers *coldLayers // traced runs only
}

// coldSweep is one sweep as the caller saw it.
type coldSweep struct {
	cellBodies [][]byte
	cellIDs    []string
	digests    []string
	arrivals   []time.Time
	start      time.Time
	done       time.Time
	out        outcome
	layers     []*coldLayers // traced runs only, one per cell
}

// coldLayers are the layer times of one fresh execution in a traced run.
type coldLayers struct {
	queueWait, execute, reportDigest, encode, put time.Duration
	executed                                      bool
}

// coldLoad drives one server with fresh work.
type coldLoad struct {
	t       *target
	scratch *store.Disk // traced runs: EncodeResult + Put target
	mu      sync.Mutex
	probs   []string
}

func (c *coldLoad) problem(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.probs) < 20 {
		c.probs = append(c.probs, fmt.Sprintf(format, args...))
	}
}

// single POSTs one fresh spec and polls its status until it is done.
func (c *coldLoad) single(cl *http.Client, body []byte) coldRun {
	r := coldRun{body: body, start: time.Now(), out: outcomeFailed}
	code, resp, _, err := do(cl, http.MethodPost, c.t.base+"/v1/runs", body, 0)
	if r.out = transportOutcome(code, err); r.out != outcomeOK {
		c.problem("single run POST: status %d: %v %.200s", code, err, resp)
		return r
	}
	var st status
	if err := json.Unmarshal(resp, &st); err != nil || code != http.StatusAccepted || st.Cache != "miss" {
		c.problem("single run POST: status %d cache %q, want 202 miss for a fresh input (%v)", code, st.Cache, err)
		r.out = outcomeWrong
		return r
	}
	r.id = st.ID
	deadline := r.start.Add(coldRunTimeout)
	for {
		time.Sleep(coldPoll)
		r.polls++
		code, resp, done, err := do(cl, http.MethodGet, c.t.base+"/v1/runs/"+r.id, nil, 0)
		if r.out = transportOutcome(code, err); r.out != outcomeOK {
			c.problem("single run GET %s: status %d: %v", r.id, code, err)
			return r
		}
		st = status{}
		if err := json.Unmarshal(resp, &st); err != nil {
			r.out = outcomeFailed
			c.problem("single run GET %s: %v", r.id, err)
			return r
		}
		switch st.State {
		case "done":
			r.done, r.digest = done, st.Digest
			if st.Digest == "" {
				r.out = outcomeWrong
				c.problem("single run %s: done without a report digest", r.id)
			}
			if c.t.spans != nil {
				r.layers = c.layers(r.id, true)
			}
			return r
		case "failed", "cancelled":
			r.out = outcomeFailed
			c.problem("single run %s: %s: %s", r.id, st.State, st.Error)
			return r
		}
		if time.Now().After(deadline) {
			r.out = outcomeFailed
			c.problem("single run %s: not done within %s", r.id, coldRunTimeout)
			return r
		}
	}
}

// sweep POSTs one sweep of fresh cells and reads its event stream to done.
func (c *coldLoad) sweep(cl *http.Client, body []byte, cellBodies [][]byte) coldSweep {
	s := coldSweep{cellBodies: cellBodies, start: time.Now(), out: outcomeFailed}
	resp, err := cl.Post(c.t.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if s.out = transportOutcome(0, err); err == nil {
		s.out = transportOutcome(resp.StatusCode, nil)
	}
	if s.out != outcomeOK {
		c.problem("sweep POST: %v", err)
		if resp != nil {
			resp.Body.Close()
		}
		return s
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "cell":
			var ev struct {
				Index        int    `json:"index"`
				ID           string `json:"id"`
				Cache        string `json:"cache"`
				State        string `json:"state"`
				ReportDigest string `json:"report_digest"`
				Error        string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				c.problem("sweep cell event: %v", err)
				s.out = outcomeFailed
				return s
			}
			s.arrivals = append(s.arrivals, time.Now())
			s.cellIDs = append(s.cellIDs, ev.ID)
			s.digests = append(s.digests, ev.ReportDigest)
			if ev.State != "done" || ev.Cache != "miss" || ev.ReportDigest == "" || ev.Index != len(s.cellIDs)-1 {
				c.problem("sweep cell %d: state %q cache %q digest %q, want a done fresh cell (%s)",
					ev.Index, ev.State, ev.Cache, ev.ReportDigest, ev.Error)
				s.out = outcomeWrong
			}
			if c.t.spans != nil {
				s.layers = append(s.layers, c.layers(ev.ID, false))
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			s.done = time.Now()
			var done struct{ Cells, Completed, Failed int }
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done); err != nil ||
				done.Cells != len(cellBodies) || done.Completed != len(cellBodies) || len(s.cellIDs) != len(cellBodies) {
				c.problem("sweep done event %+v, want %d completed cells (%v)", done, len(cellBodies), err)
				s.out = outcomeWrong
			}
			return s
		}
	}
	c.problem("sweep stream ended before its done event: %v", sc.Err())
	s.out = outcomeFailed
	return s
}

// layers reads one fresh execution's layer times in a traced run: queue
// wait from Manager.Job(id).Snapshot, the execute span from the wrapped
// Config.Run, and Report.Digest plus EncodeResult and Disk.Put into a
// scratch store timed on the stored result right after it completed.
func (c *coldLoad) layers(id string, queued bool) *coldLayers {
	l := &coldLayers{}
	if s, ok := c.t.spans.executeSpan(id); ok {
		l.execute, l.executed = s.dur(), true
	}
	job, ok := c.t.srv.Manager().Job(id)
	if !ok {
		return l
	}
	snap := job.Snapshot()
	if queued {
		l.queueWait = snap.Started.Sub(snap.Submitted)
	}
	if snap.Result == nil || snap.Result.Report == nil {
		return l
	}
	t := time.Now()
	_, _ = snap.Result.Report.Digest()
	l.reportDigest = time.Since(t)
	t = time.Now()
	data, err := run.EncodeResult(id, snap.Result)
	l.encode = time.Since(t)
	if err != nil {
		c.problem("encode %s: %v", id, err)
		return l
	}
	t = time.Now()
	if err := c.scratch.Put(id, data); err != nil {
		c.problem("scratch put %s: %v", id, err)
	}
	l.put = time.Since(t)
	return l
}

// coldResult is one serve-cold window.
type coldResult struct {
	runs   []coldRun
	sweeps []coldSweep
	window time.Duration
}

// drive runs the two closed-loop callers for d: one single-run caller and
// one sweep caller, each on its own connection.
func (c *coldLoad) drive(seed int64, d time.Duration) coldResult {
	start := time.Now()
	deadline := start.Add(d)
	var res coldResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g, cl := newColdGen(seed, streamRuns), newClient(1)
		for time.Now().Before(deadline) {
			res.runs = append(res.runs, c.single(cl, g.run()))
		}
	}()
	go func() {
		defer wg.Done()
		g, cl := newColdGen(seed, streamSweeps), newClient(1)
		for time.Now().Before(deadline) {
			body, cells := g.sweep(sweepCells)
			res.sweeps = append(res.sweeps, c.sweep(cl, body, cells))
		}
	}()
	wg.Wait()
	res.window = time.Since(start)
	return res
}

// bootCold boots a server on a fresh store and warms it, on seeds the
// measured callers never use, with one single run of each scheme, so the
// warm-up does the same mix of work under every seed, and one two-cell
// sweep.
func bootCold(o opts, dir string, inProcess bool) (*coldLoad, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
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
	c := &coldLoad{t: t}
	if inProcess {
		if c.scratch, err = store.OpenDisk(dir+"-scratch", 0, nil); err != nil {
			_ = t.stop()
			return nil, err
		}
	}
	g, cl := newColdGen(o.seed, streamWarm), newClient(1)
	ok := true
	for range coldSchemes {
		ok = c.single(cl, g.run()).out == outcomeOK && ok
	}
	body, cells := g.sweep(2)
	if !ok || c.sweep(cl, body, cells).out != outcomeOK {
		_ = t.stop()
		return nil, fmt.Errorf("serve-cold warm-up failed: %v", c.probs)
	}
	return c, nil
}

func (cr coldResult) account() (runs, sweeps phaseCount) {
	var ro, so []outcome
	for _, x := range cr.runs {
		ro = append(ro, x.out)
	}
	for _, x := range cr.sweeps {
		so = append(so, x.out)
	}
	return tally("cold-single-runs", ro), tally("cold-sweeps", so)
}

// e2e returns the single-run latencies and the sweep latencies in ms.
func (cr coldResult) e2e() (runs, sweeps []float64) {
	for _, r := range cr.runs {
		if r.out == outcomeOK {
			runs = append(runs, ms(r.done.Sub(r.start)))
		}
	}
	for _, s := range cr.sweeps {
		if s.out == outcomeOK {
			sweeps = append(sweeps, ms(s.done.Sub(s.start)))
		}
	}
	return runs, sweeps
}

// executions counts fresh runs completed: single runs plus sweep cells.
func (cr coldResult) executions() int {
	n := 0
	for _, r := range cr.runs {
		if r.out == outcomeOK {
			n++
		}
	}
	for _, s := range cr.sweeps {
		if s.out == outcomeOK {
			n += len(s.cellIDs)
		}
	}
	return n
}

// verify re-executes a seeded sample of single runs and sweep cells in
// process and compares their report digests with the server's.
func (cr coldResult) verify(seed int64, r *result) {
	rng := newRNG(seed, 7)
	var okRuns []coldRun
	for _, x := range cr.runs {
		if x.out == outcomeOK {
			okRuns = append(okRuns, x)
		}
	}
	for i := 0; i < coldSample && len(okRuns) > 0; i++ {
		x := okRuns[rng.IntN(len(okRuns))]
		if err := checkRecompute(x.body, x.digest); err != nil {
			r.fail("serve-cold single run: %v", err)
		}
	}
	var okSweeps []coldSweep
	for _, s := range cr.sweeps {
		if s.out == outcomeOK {
			okSweeps = append(okSweeps, s)
		}
	}
	for i := 0; i < coldSample && len(okSweeps) > 0; i++ {
		s := okSweeps[rng.IntN(len(okSweeps))]
		j := rng.IntN(len(s.cellBodies))
		var req run.Request
		if err := json.Unmarshal(s.cellBodies[j], &req); err != nil {
			r.fail("serve-cold sweep cell: %v", err)
			continue
		}
		if norm, err := req.Normalize(); err != nil || norm.Digest() != s.cellIDs[j] {
			r.fail("serve-cold sweep cell %d: server id %s is not the digest of the cell's spec (%v)", j, s.cellIDs[j], err)
			continue
		}
		if err := checkRecompute(s.cellBodies[j], s.digests[j]); err != nil {
			r.fail("serve-cold sweep cell: %v", err)
		}
	}
}

// runCold is the measured serve-cold run against the built hcperf-serve.
func runCold(o opts, r *result) error {
	var setups setupTimes
	var c *coldLoad
	for i := 0; i < setupRepeats; i++ {
		err := setups.time(func() (time.Duration, error) {
			var err error
			if c, err = bootCold(o, filepath.Join(o.work, fmt.Sprintf("cold-store-%d", i)), false); err != nil {
				return 0, err
			}
			return c.t.cpu(), nil
		})
		if err != nil {
			return err
		}
		if i < setupRepeats-1 {
			if err := c.t.stop(); err != nil {
				return err
			}
		}
	}
	peaks, err := sampleRSSPeaks(c.t.pid)
	if err != nil {
		return err
	}
	cpu0 := c.t.cpu()
	cr := c.drive(o.seed, time.Duration(o.seconds*float64(time.Second)))
	cpu := c.t.cpu() - cpu0
	rss, err := peaks.finish()
	if err != nil {
		return err
	}
	if err := c.t.stop(); err != nil {
		return err
	}
	runsPC, sweepsPC := cr.account()
	r.count(runsPC)
	r.count(sweepsPC)
	for _, p := range c.probs {
		r.fail("%s", p)
	}
	r.add("throughput_per_s", float64(cr.executions())/cpu.Seconds(), "1/s", cr.executions(), "fresh executions per server CPU-second")
	reportRSS(r, rss)
	setups.report(r, "fresh store + boot + warm-up")
	runs, sweeps := cr.e2e()
	if len(runs) < 2*minBeyond || len(sweeps) < 2*minBeyond {
		r.fail("serve-cold: %d single runs and %d sweeps completed, need %d of each for a median", len(runs), len(sweeps), 2*minBeyond)
	}
	r.notePct("cold_p50_ms", runs, 0.5, "ms")
	r.notePct("cold_p90_ms", runs, 0.9, "ms")
	r.notePct("cold_p99_ms", runs, 0.99, "ms")
	r.notePct("sweep_p50_ms", sweeps, 0.5, "ms")
	r.note("cold_runs_per_s", float64(cr.executions())/cr.window.Seconds(), "1/s", cr.executions())
	cr.verify(o.seed, r)
	return nil
}
