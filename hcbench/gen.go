package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"hcperf/internal/run"
)

// newRNG returns the benchmark's generator for one workload seed and one
// purpose, so the streams that pick the working set, the request order and
// the cold-run inputs never shift each other.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// zipfCounts splits n requests over k popularity ranks in proportion to
// 1/(rank+1)^s, rounding by largest remainder so the counts sum to n. The
// counts, not a random draw, fix each rank's share, so every seed sends
// the same mix of classes and only the order and the items differ.
func zipfCounts(k int, s float64, n int) []int {
	w := make([]float64, k)
	total := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		total += w[r]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	frac := make([]float64, k)
	given := 0
	for r := range w {
		exact := float64(n) * w[r] / total
		counts[r] = int(exact)
		frac[r] = exact - float64(counts[r])
		rem[r] = r
		given += counts[r]
	}
	sort.SliceStable(rem, func(i, j int) bool { return frac[rem[i]] > frac[rem[j]] })
	for i := 0; given < n; i++ {
		counts[rem[i]]++
		given++
	}
	return counts
}

// sequence expands per-rank counts into a request order: rank r appears
// counts[r] times, its j-th request at a random point of the j-th of
// counts[r] equal slices of the sequence. The order is random, yet every
// prefix holds close to its share of each rank, so a phase that stops
// part way through (the closed loop) still sends the full mix.
func sequence(counts []int, rng *rand.Rand) []int {
	type slot struct {
		at   float64
		rank int
	}
	var slots []slot
	for r, c := range counts {
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + rng.Float64()) / float64(c), r})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].at != slots[j].at {
			return slots[i].at < slots[j].at
		}
		return slots[i].rank < slots[j].rank
	})
	seq := make([]int, len(slots))
	for i, s := range slots {
		seq[i] = s.rank
	}
	return seq
}

// Item classes of the serve-hit working set.
const (
	classRegistry       = "registry"        // registry experiment, report without series
	classRegistrySeries = "registry-series" // registry experiment, report with series
	classScenario       = "scenario"        // single-vehicle scenario run
	classSpec           = "spec"            // single-vehicle inline spec run
	classTraced         = "traced"          // traced scenario run
	classFleet          = "fleet"           // small platoon fleet spec
)

// item is one request of the serve-hit working set: the POST body the
// client sends, the request it decodes to, and what set-up learned when it
// stored the result.
type item struct {
	Rank  int
	Class string
	Body  []byte
	Req   run.Request

	ID       string // request digest
	Digest   string // report digest computed at set-up
	Series   bool
	Volatile bool
}

// workingSetSize exceeds the server's default memory tier (-cache 128), so
// the least popular results are answered from disk.
const workingSetSize = 160

// zipfS is the popularity exponent of the serve-hit working set. It is an
// assumption: no measurement of hcperf-serve's request popularity exists.
// 0.8 lies in the range Breslau, Cao, Fan, Phillips and Shenker fitted to
// web-proxy request traces (0.64 to 0.83; "Web Caching and Zipf-like
// Distributions: Evidence and Implications", IEEE INFOCOM 1999), the
// nearest published measurement of independent readers of stored results.
const zipfS = 0.8

var (
	// Registry experiments without series; the seed decides which sits at
	// which of their ranks. Their hits cost the same, so the order does
	// not move the mix.
	plainExperiments = []string{"fig5", "table5", "table6", "overhead", "table3", "ablate-dataage", "ext-dual", "table2"}
	// Registry experiments with series, in the registry's listing order
	// (experiment.IDs). The i-th sits at rank seriesRank(i).
	seriesExperiments = []string{"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig4"}
	scenarioKinds     = []string{"carfollow", "aeb", "hardware", "jam", "lanekeep", "combined", "motivation"}
	schemes           = []string{"hpf", "edf", "edfvd", "apollo", "hcperf", "hcperf-internal"}
	coldSchemes       = []string{"hpf", "edf", "edfvd", "apollo", "hcperf"}
)

const (
	tracedRank = 7
	fleetRank  = 15
)

// seriesRank places the registry experiments with series. The placement is
// an assumption, made by a rule that ignores what each experiment costs:
// they are spread evenly over the ranks, 21 apart, so every popularity band
// holds one, and since 21 and the shard count 8 are coprime each memory
// shard holds one. The offset 2 is the first at which no series rank
// collides with another fixed rank (the plain experiments', the traced
// run's or the fleet's).
func seriesRank(i int) int { return 2 + 21*i }

// seriesAt returns the registry experiment with series at rank r, or "".
func seriesAt(r int) string {
	for i, id := range seriesExperiments {
		if r == seriesRank(i) {
			return id
		}
	}
	return ""
}

// workingSet generates the serve-hit working set for seed: classes, kinds
// and durations are fixed per rank; schemes, run seeds, obstacle and load
// profiles and the placement of the plain experiments come from the seed.
func workingSet(seed int64) ([]*item, error) {
	rng := newRNG(seed, 1)
	plain := append([]string(nil), plainExperiments...)
	rng.Shuffle(len(plain), func(i, j int) { plain[i], plain[j] = plain[j], plain[i] })
	runSeed := func() int64 { return 1 + rng.Int64N(1<<40) }
	items := make([]*item, workingSetSize)
	for r := range items {
		it := &item{Rank: r}
		// Redraw the item until its digest falls in memory shard r mod 8,
		// so every shard holds an equal slice of the popularity ranks and
		// the share answered from disk does not depend on the seed.
		for {
			body := drawItem(it, rng, plain, runSeed)
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			it.Req = run.Request{}
			if err := json.Unmarshal(b, &it.Req); err != nil {
				return nil, fmt.Errorf("working set rank %d: %w", r, err)
			}
			norm, err := it.Req.Normalize()
			if err != nil {
				return nil, fmt.Errorf("working set rank %d: %w", r, err)
			}
			if shardOf(norm.Digest()) == r%memoryShards {
				it.Body = b
				break
			}
		}
		items[r] = it
	}
	return items, nil
}

// memoryShards is the job manager's default shard count
// (service.ManagerConfig.Shards), which hcperf-serve does not expose.
const memoryShards = 8

// shardOf is the memory shard internal/service assigns a digest to: fnv-32a
// of the digest modulo the shard count.
func shardOf(digest string) int {
	h := fnv.New32a()
	h.Write([]byte(digest))
	return int(h.Sum32() % memoryShards)
}

// drawItem draws the request of one working-set rank.
func drawItem(it *item, rng *rand.Rand, plain []string, runSeed func() int64) any {
	r := it.Rank
	var body any
	switch {
	case seriesAt(r) != "":
		it.Class = classRegistrySeries
		body = map[string]any{"experiment": seriesAt(r), "seed": runSeed()}
	case r%4 == 1 && r/4 < len(plain):
		it.Class = classRegistry
		body = map[string]any{"experiment": plain[r/4], "seed": runSeed()}
	case r == tracedRank:
		it.Class = classTraced
		body = map[string]any{"scenario": "carfollow", "scheme": schemes[rng.IntN(len(schemes))],
			"seed": runSeed(), "duration": 2, "trace": true}
	case r == fleetRank:
		it.Class = classFleet
		body = map[string]any{"spec": fleetSpec(4, 4, runSeed())}
	case r%2 == 0:
		it.Class = classScenario
		body = map[string]any{"scenario": scenarioKinds[(r/2)%len(scenarioKinds)],
			"scheme": schemes[rng.IntN(len(schemes))], "seed": runSeed(), "duration": 2 + r%3}
	default:
		it.Class = classSpec
		body = map[string]any{"spec": overloadSpec(rng, float64(2+r%3), runSeed(), schemes[rng.IntN(len(schemes))])}
	}
	return body
}

// overloadSpec is a carfollow spec shaped like
// examples/specs/fusion-overload.json: a sensor-fusion load window, camera
// and lidar rate overrides and a three-phase obstacle profile, the load
// factor and obstacle counts varied by rng.
func overloadSpec(rng *rand.Rand, duration float64, seed int64, scheme string) map[string]any {
	third := duration / 3
	return map[string]any{
		"name":     "fusion-overload",
		"scenario": "carfollow",
		"scheme":   scheme,
		"seed":     seed,
		"duration": duration,
		"loads": []map[string]any{{"task": "sensor_fusion", "from": third, "to": 2 * third,
			"factor": 1.5 + float64(rng.IntN(3))*0.25}},
		"rate_overrides": map[string]any{"camera_front": 10, "lidar_scan": 10},
		"obstacles": []map[string]any{{"t": 0, "n": 6 + rng.IntN(8)}, {"t": third, "n": 20 + rng.IntN(12)},
			{"t": 2 * third, "n": 6 + rng.IntN(8)}},
	}
}

// fleetSpec is a platoon fleet spec shaped like
// examples/specs/platoon-fleet.json.
func fleetSpec(n int, duration float64, seed int64) map[string]any {
	return map[string]any{
		"name": "platoon-fleet", "scenario": "carfollow", "scheme": "hcperf", "seed": seed, "duration": duration,
		"fleet": map[string]any{"n": n, "coupling": "platoon", "spacing": 18, "brake_threshold": 2.0, "brake_obstacles": 14},
	}
}

// coldDuration is the simulated length of every serve-cold run, the
// length of examples/specs/fusion-overload.json.
const coldDuration = 30

// coldGen hands out serve-cold inputs: every spec carries a run seed no
// other request of the invocation uses, so every lookup misses. Callers
// take disjoint seed ranges through distinct streams. Each caller cycles
// through the schemes from a seeded start, so every window runs the same
// scheme mix and the seed moves only the obstacles, loads and run seeds.
type coldGen struct {
	rng    *rand.Rand
	next   int64
	scheme int
}

func newColdGen(seed int64, stream uint64) *coldGen {
	rng := newRNG(seed, 10+stream)
	return &coldGen{rng: rng, next: int64(stream)<<40 + rng.Int64N(1<<36), scheme: rng.IntN(len(coldSchemes))}
}

func (g *coldGen) seed() int64 {
	g.next++
	return g.next
}

func (g *coldGen) nextScheme() string {
	g.scheme = (g.scheme + 1) % len(coldSchemes)
	return coldSchemes[g.scheme]
}

// run returns the next single-run POST body.
func (g *coldGen) run() []byte {
	b, _ := json.Marshal(map[string]any{"spec": overloadSpec(g.rng, coldDuration, g.seed(), g.nextScheme())})
	return b
}

// sweep returns the next sweep POST body, one overload template over a
// grid of fresh seeds, and the run body each of its cells is equivalent to.
func (g *coldGen) sweep(cells int) (body []byte, cellBodies [][]byte) {
	tmpl := overloadSpec(g.rng, coldDuration, 1, g.nextScheme())
	seeds := make([]int64, cells)
	for i := range seeds {
		seeds[i] = g.seed()
		tmpl["seed"] = seeds[i]
		b, _ := json.Marshal(map[string]any{"spec": tmpl})
		cellBodies = append(cellBodies, b)
	}
	delete(tmpl, "seed")
	body, _ = json.Marshal(map[string]any{"template": tmpl, "grid": map[string]any{"seed": seeds}})
	return body, cellBodies
}
