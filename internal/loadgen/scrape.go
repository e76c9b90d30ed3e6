package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Snapshot is one parse of a Prometheus text exposition: metric name (with
// any label set attached verbatim) to value. Only the last sample of a
// repeated name wins, which matches the exposition format's semantics for
// the unlabeled counters the load generator cares about.
type Snapshot map[string]float64

// parseMetrics reads Prometheus text exposition into a Snapshot, skipping
// comments and lines it cannot parse (a scrape is best-effort telemetry,
// never a reason to fail a load run).
func parseMetrics(s *bufio.Scanner) Snapshot {
	snap := make(Snapshot)
	for s.Scan() {
		line := strings.TrimSpace(s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] = v
	}
	return snap
}

// scrape fetches and parses url (the server's /metrics endpoint).
func scrape(ctx context.Context, client *http.Client, url string) (Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scraping %s: status %d", url, resp.StatusCode)
	}
	return parseMetrics(bufio.NewScanner(resp.Body)), nil
}

// ServerDelta is the server's own accounting over the measurement window,
// computed from a /metrics snapshot taken at each end. It answers the
// questions client-side latency cannot: how many runs actually completed,
// what fraction of submissions the cache absorbed, and whether the
// resilience layer fired.
type ServerDelta struct {
	// RunsPerSec is completed executions per second over the window.
	RunsPerSec float64 `json:"runs_per_sec"`
	// CacheHitRatio is (memory hits + disk hits + dedup hits) over all
	// submissions that reached the manager.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// ShedRatio is queue-full 429s over submissions (shed + answered from
	// a store tier or coalesced + admitted).
	ShedRatio float64 `json:"shed_ratio"`
	// RateLimited counts limiter 429s issued during the window (0 when the
	// limiter is off).
	RateLimited float64 `json:"rate_limited"`
	// BreakerOpens counts breaker trips during the window.
	BreakerOpens float64 `json:"breaker_opens"`
}

// delta computes after-before for one counter (absent names read as 0, so
// optional families like hcperf_ratelimit_* degrade to zero deltas).
func delta(before, after Snapshot, name string) float64 {
	return after[name] - before[name]
}

// serverDelta folds two snapshots into the window's ServerDelta.
func serverDelta(before, after Snapshot, window time.Duration) *ServerDelta {
	d := &ServerDelta{
		RateLimited:  delta(before, after, "hcperf_ratelimit_limited_total"),
		BreakerOpens: delta(before, after, "hcperf_breaker_opens_total"),
	}
	if s := window.Seconds(); s > 0 {
		d.RunsPerSec = delta(before, after, "hcperf_runs_completed_total") / s
	}
	hits := delta(before, after, `hcperf_store_hits_total{tier="memory"}`) +
		delta(before, after, `hcperf_store_hits_total{tier="disk"}`) +
		delta(before, after, "hcperf_dedup_hits_total")
	misses := delta(before, after, "hcperf_cache_misses_total")
	if total := hits + misses; total > 0 {
		d.CacheHitRatio = hits / total
	}
	shed := delta(before, after, "hcperf_shed_total")
	if total := shed + hits + misses; total > 0 {
		d.ShedRatio = shed / total
	}
	return d
}
