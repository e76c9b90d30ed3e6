package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hcperf/internal/store"
)

// runTraced is the traced run. BENCHMARK.json lists one set of per-layer
// metrics for all workloads, so a traced run always traces all three, the
// selected workload first. Each workload's pass first measures its
// end-to-end figure untraced, then again traced with the server hosted in
// process, so the difference (the tracing overhead) is its own metric.
func runTraced(o opts, r *result) error {
	order := []string{o.workload}
	for _, w := range traceOrder {
		if w != o.workload {
			order = append(order, w)
		}
	}
	passes := map[string]func(opts, *result) error{
		"serve-hit":  traceHit,
		"serve-cold": traceCold,
		"sim-fleet":  traceFleetPass,
	}
	for _, w := range order {
		if err := passes[w](o, r); err != nil {
			return fmt.Errorf("traced %s: %w", w, err)
		}
	}
	return nil
}

func durs(xs []time.Duration, scale func(time.Duration) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = scale(x)
	}
	return out
}

// traceHit measures serve-hit's layers.
func traceHit(o opts, r *result) error {
	items, err := workingSet(o.seed)
	if err != nil {
		return err
	}
	capDur := time.Duration(hitCapShare * o.seconds * float64(time.Second))
	closed, open := hitSequences(o.seed, (1-hitCapShare)*o.seconds)
	dir := filepath.Join(o.work, "hit-traced")
	h, err := hitSetup(o, items, dir, false, closed)
	if err != nil {
		return err
	}
	plainObs, _ := h.openLoop(open[:len(open)/2], hitRate)
	if err := h.t.stop(); err != nil {
		return err
	}
	r.count(account("hit-untraced-open-loop", plainObs))

	if h, err = bootHit(o, items, dir, true, closed); err != nil {
		return err
	}
	defer func() { _ = h.t.stop() }()
	st := h.t.srv.Manager().Metrics().Store
	evictions := st.MemoryEvictions.Load()
	capObs, _ := h.closedLoop(closed, capDur, 0)
	openObs, late := h.openLoop(open, hitRate)
	evictions = st.MemoryEvictions.Load() - evictions
	r.count(account("hit-traced-capacity", capObs))
	r.count(account("hit-traced-open-loop", openObs))
	for _, p := range h.problems {
		r.fail("%s", p)
	}
	if lateGrowth(late, lateLimitMS) {
		r.fail("traced open-loop phase overloaded: generator lateness grew by more than %g ms", lateLimitMS)
	}

	var handler, transport, decode, normalize, digest, submit, diskGet, decodeRes, repDigest, render, remainder []time.Duration
	memory, disk := 0, 0
	all := append(append([]hitObs(nil), capObs...), openObs...)
	for _, ob := range all {
		s := ob.stages
		if s == nil {
			continue
		}
		switch ob.tier {
		case string(store.TierMemory):
			memory++
		case string(store.TierDisk):
			disk++
			diskGet = append(diskGet, s.diskGet)
			decodeRes = append(decodeRes, s.decodeResult)
		}
		decode = append(decode, s.decode)
		normalize = append(normalize, s.normalize)
		digest = append(digest, s.digest)
		repDigest = append(repDigest, s.reportDigest)
		render = append(render, s.render)
		if s.haveSubmit {
			submit = append(submit, s.submit)
		}
		if s.haveHandler {
			handler = append(handler, s.handler)
			transport = append(transport, ob.done.Sub(ob.sent)-s.handler)
			remainder = append(remainder, s.handler-s.covered())
		}
	}
	r.pct("http.transport_p50_ms", durs(transport, ms), 0.5, "ms", "")
	r.pct("service.handler_p50_ms", durs(handler, ms), 0.5, "ms", "")
	r.pct("service.handler_p99_ms", durs(handler, ms), 0.99, "ms", "")
	r.pct("run.decode_p50_us", durs(decode, us), 0.5, "us", "")
	r.pct("run.normalize_p50_us", durs(normalize, us), 0.5, "us", "")
	r.pct("run.digest_p50_us", durs(digest, us), 0.5, "us", "")
	r.pct("service.submit_p50_us", durs(submit, us), 0.5, "us", "")
	answered := float64(memory + disk)
	r.add("store.memory_hit_ratio", float64(memory)/answered, "ratio", memory+disk, "")
	r.add("store.disk_hit_ratio", float64(disk)/answered, "ratio", memory+disk, "")
	r.add("store.memory_evictions", float64(evictions), "count", memory+disk, "")
	r.pct("store.disk_get_p50_ms", durs(diskGet, ms), 0.5, "ms", "")
	r.pct("run.decode_result_p50_ms", durs(decodeRes, ms), 0.5, "ms", "")
	r.pct("experiment.report_digest_p50_ms", durs(repDigest, ms), 0.5, "ms", "")
	r.pct("experiment.report_digest_p99_ms", durs(repDigest, ms), 0.99, "ms", "")
	r.pct("service.render_p50_ms", durs(render, ms), 0.5, "ms", "")
	r.add("hit.series_share", seriesShare(items, openObs), "ratio", len(openObs), "")
	tierLat := func(tier store.Tier) []float64 {
		return latencies(openObs, func(ob hitObs) bool { return ob.tier == string(tier) })
	}
	r.pct("hit.memory_p50_ms", tierLat(store.TierMemory), 0.5, "ms", "")
	r.pct("hit.disk_p50_ms", tierLat(store.TierDisk), 0.5, "ms", "")
	r.pct("gen.late_p99_ms", late, 0.99, "ms", "")
	r.pct("hit.unattributed_p50_ms", durs(remainder, ms), 0.5, "ms", "handler span minus its timed stages")
	traced, plain := median(latencies(openObs, nil)), median(latencies(plainObs, nil))
	r.add("hit.traced_p50_ms", traced, "ms", len(openObs), "")
	r.add("hit.untraced_p50_ms", plain, "ms", len(plainObs), "")
	r.add("hit.trace_overhead_p50_ms", traced-plain, "ms", len(openObs), "")
	return nil
}

// traceCold measures serve-cold's layers.
func traceCold(o opts, r *result) error {
	window := time.Duration(o.seconds * float64(time.Second))
	c, err := bootCold(o, filepath.Join(o.work, "cold-untraced"), false)
	if err != nil {
		return err
	}
	plain := c.drive(o.seed, window/2)
	if err := c.t.stop(); err != nil {
		return err
	}
	pr, ps := plain.account()
	pr.Name, ps.Name = "cold-untraced-single-runs", "cold-untraced-sweeps"
	r.count(pr)
	r.count(ps)

	if c, err = bootCold(o, filepath.Join(o.work, "cold-traced"), true); err != nil {
		return err
	}
	defer func() { _ = c.t.stop() }()
	cr := c.drive(o.seed, window)
	tr, ts := cr.account()
	r.count(tr)
	r.count(ts)
	for _, p := range c.probs {
		r.fail("%s", p)
	}
	var queueWait, execute, repDigest, encode, put, remainder, gaps []time.Duration
	var busy time.Duration
	polls := 0
	add := func(l *coldLayers) {
		if l == nil {
			return
		}
		if l.executed {
			execute = append(execute, l.execute)
		}
		repDigest = append(repDigest, l.reportDigest)
		encode = append(encode, l.encode)
		put = append(put, l.put)
	}
	for _, x := range cr.runs {
		if x.out != outcomeOK || x.layers == nil {
			continue
		}
		l := x.layers
		add(l)
		queueWait = append(queueWait, l.queueWait)
		// The worker encodes and stores the result after it marks the run
		// done, so encode and put keep a worker busy but are not on the
		// path from the POST to the GET that returns done.
		busy += l.execute + l.encode + l.put
		polls += x.polls
		remainder = append(remainder, x.done.Sub(x.start)-(l.queueWait+l.execute+l.reportDigest))
	}
	for _, s := range cr.sweeps {
		for _, l := range s.layers {
			add(l)
		}
		for i := 1; i < len(s.arrivals); i++ {
			gaps = append(gaps, s.arrivals[i].Sub(s.arrivals[i-1]))
		}
	}
	mgr := c.t.srv.Manager()
	r.pct("service.queue_wait_p50_ms", durs(queueWait, ms), 0.5, "ms", "")
	r.pct("service.queue_wait_p90_ms", durs(queueWait, ms), 0.9, "ms", "p99 needs 1000 runs")
	r.pct("run.execute_p50_ms", durs(execute, ms), 0.5, "ms", "")
	r.pct("run.execute_p90_ms", durs(execute, ms), 0.9, "ms", "p99 needs 1000 executions")
	r.pct("cold.report_digest_p50_ms", durs(repDigest, ms), 0.5, "ms", "experiment.report_digest on serve-cold")
	r.pct("cold.report_digest_p90_ms", durs(repDigest, ms), 0.9, "ms", "experiment.report_digest on serve-cold")
	r.pct("run.encode_result_p50_ms", durs(encode, ms), 0.5, "ms", "")
	r.pct("store.disk_put_p50_ms", durs(put, ms), 0.5, "ms", "")
	// The shipped default of -workers.
	const workers = 4
	r.add("service.worker_busy_share", busy.Seconds()/(workers*cr.window.Seconds()), "ratio", len(queueWait), "")
	r.add("gen.polls_per_run", float64(polls)/float64(len(queueWait)), "count", len(queueWait), "")
	r.pct("sweep.cell_gap_p50_ms", durs(gaps, ms), 0.5, "ms", "")
	r.add("service.shed", float64(mgr.Metrics().Shed.Load()), "count", 1, "")
	r.add("policy.breaker_opens", float64(mgr.Breaker().Opens()), "count", 1, "")
	r.pct("cold.unattributed_p50_ms", durs(remainder, ms), 0.5, "ms", "single run minus queue wait, execute and report digest")
	runs, _ := cr.e2e()
	plainRuns, _ := plain.e2e()
	r.add("cold.traced_p50_ms", median(runs), "ms", len(runs), "")
	r.add("cold.untraced_p50_ms", median(plainRuns), "ms", len(plainRuns), "")
	r.add("cold.trace_overhead_p50_ms", median(runs)-median(plainRuns), "ms", len(runs), "")
	cr.verify(o.seed, r)
	return nil
}

// traceFleetPass measures sim-fleet's layers.
func traceFleetPass(o opts, r *result) error {
	return traceFleet(o.seed, time.Duration(o.seconds*float64(time.Second)), o.work, r)
}
