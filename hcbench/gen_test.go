package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestZipfCountsHandComputed(t *testing.T) {
	cases := []struct {
		k    int
		s    float64
		n    int
		want []int
	}{
		// Weights 1, 1/2, 1/3 sum to 11/6: exact shares 6, 3, 2.
		{3, 1, 11, []int{6, 3, 2}},
		// 8/3 and 4/3: floors 2 and 1, the larger remainder gets the last.
		{2, 1, 4, []int{3, 1}},
		// s = 0 is uniform: 2.5 each, ties resolved toward the lower rank.
		{4, 0, 10, []int{3, 3, 2, 2}},
	}
	for _, c := range cases {
		if got := zipfCounts(c.k, c.s, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("zipfCounts(%d, %g, %d) = %v, want %v", c.k, c.s, c.n, got, c.want)
		}
	}
}

func TestQuantileHandComputed(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 down to 1: quantile must sort
	}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {0.01, 1, 99}}
	for _, c := range cases {
		v, beyond := quantile(append([]float64(nil), xs...), c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(1..100, %g) = %g with %d beyond, want %g with %d", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := quantile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("quantile of one sample = %g, %d", v, beyond)
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %g, want NaN", v)
	}
	var r result
	r.pct("p99", xs, 0.99, "ms", "")
	if len(r.problems) != 1 {
		t.Errorf("a p99 over 100 samples must be refused, got problems %v", r.problems)
	}
}

func TestLateGrowth(t *testing.T) {
	flat := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range flat {
		flat[i] = float64(i % 3)
		growing[i] = float64(i) / 4
	}
	if lateGrowth(flat, 20) {
		t.Error("flat lateness flagged as overload")
	}
	if !lateGrowth(growing, 20) {
		t.Error("lateness growing to 100 ms not flagged")
	}
}

func TestSequenceKeepsCountsAndSpreadsEveryPrefix(t *testing.T) {
	counts := zipfCounts(workingSetSize, zipfS, 5000)
	seq := sequence(counts, newRNG(1, 3))
	seen := make([]int, len(counts))
	for m, r := range seq {
		seen[r]++
		if m%250 != 0 {
			continue
		}
		for rank, c := range counts {
			if want := float64(c) * float64(m+1) / float64(len(seq)); math.Abs(float64(seen[rank])-want) > 2 {
				t.Fatalf("prefix %d holds %d of rank %d, want about %.1f", m+1, seen[rank], rank, want)
			}
		}
	}
	if !reflect.DeepEqual(seen, counts) {
		t.Fatalf("sequence counts %v, want %v", seen, counts)
	}
}

func TestSeriesRanksSpreadOverBandsAndShards(t *testing.T) {
	shards := map[int]bool{}
	for i := range seriesExperiments {
		r := seriesRank(i)
		plain := r%4 == 1 && r/4 < len(plainExperiments)
		if r >= workingSetSize || plain || r == tracedRank || r == fleetRank {
			t.Errorf("series rank %d is out of range or collides with another fixed rank", r)
		}
		if shards[r%memoryShards] {
			t.Errorf("series rank %d shares memory shard %d", r, r%memoryShards)
		}
		shards[r%memoryShards] = true
	}
}

func TestSeedsReproduceInputs(t *testing.T) {
	a1, err := workingSet(5)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := workingSet(5)
	b, _ := workingSet(6)
	same, differ := true, false
	for i := range a1 {
		same = same && bytes.Equal(a1[i].Body, a2[i].Body)
		differ = differ || !bytes.Equal(a1[i].Body, b[i].Body)
		if a1[i].Class != b[i].Class {
			t.Errorf("rank %d: class %s under one seed, %s under another", i, a1[i].Class, b[i].Class)
		}
		norm, err := a1[i].Req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if shardOf(norm.Digest()) != i%memoryShards {
			t.Errorf("rank %d lands in shard %d", i, shardOf(norm.Digest()))
		}
	}
	if !same || !differ {
		t.Errorf("working set: same seed identical=%v, other seed different=%v", same, differ)
	}

	c1, o1 := hitSequences(5, 15)
	c2, o2 := hitSequences(5, 15)
	c3, o3 := hitSequences(6, 15)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(o1, o2) {
		t.Error("request sequences differ under one seed")
	}
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(o1, o3) {
		t.Error("request sequences equal under two seeds")
	}

	bodies := func(seed int64) [][]byte {
		g := newColdGen(seed, streamRuns)
		s := newColdGen(seed, streamSweeps)
		sweep, cells := s.sweep(3)
		return append([][]byte{g.run(), g.run(), sweep}, cells...)
	}
	x, y, z := bodies(5), bodies(5), bodies(6)
	if !reflect.DeepEqual(x, y) {
		t.Error("cold inputs differ under one seed")
	}
	for i := range x {
		if bytes.Equal(x[i], z[i]) {
			t.Errorf("cold input %d equal under two seeds", i)
		}
	}
}
