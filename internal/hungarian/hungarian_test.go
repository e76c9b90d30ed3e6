package hungarian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownCases(t *testing.T) {
	tests := []struct {
		name      string
		cost      [][]float64
		wantTotal float64
	}{
		{
			name:      "1x1",
			cost:      [][]float64{{7}},
			wantTotal: 7,
		},
		{
			name: "2x2 diagonal optimal",
			cost: [][]float64{
				{1, 100},
				{100, 1},
			},
			wantTotal: 2,
		},
		{
			name: "2x2 anti-diagonal optimal",
			cost: [][]float64{
				{100, 1},
				{1, 100},
			},
			wantTotal: 2,
		},
		{
			name: "3x3 classic",
			cost: [][]float64{
				{4, 1, 3},
				{2, 0, 5},
				{3, 2, 2},
			},
			wantTotal: 5, // (0,1)=1 + (1,0)=2 + (2,2)=2
		},
		{
			name: "4x4 with negatives",
			cost: [][]float64{
				{-5, 3, 3, 3},
				{3, -5, 3, 3},
				{3, 3, -5, 3},
				{3, 3, 3, -5},
			},
			wantTotal: -20,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, total, err := Solve(tt.cost)
			if err != nil {
				t.Fatal(err)
			}
			if total != tt.wantTotal {
				t.Errorf("total = %v, want %v", total, tt.wantTotal)
			}
			if !isPermutation(got) {
				t.Errorf("assignment %v is not a permutation", got)
			}
		})
	}
}

func TestSolveEmpty(t *testing.T) {
	got, total, err := Solve(nil)
	if err != nil || got != nil || total != 0 {
		t.Errorf("Solve(nil) = %v, %v, %v; want nil, 0, nil", got, total, err)
	}
}

func TestSolveRagged(t *testing.T) {
	_, _, err := Solve([][]float64{{1, 2}, {3}})
	if err == nil {
		t.Error("ragged matrix accepted, want error")
	}
}

func TestSolveNaN(t *testing.T) {
	_, _, err := Solve([][]float64{{math.NaN()}})
	if err == nil {
		t.Error("NaN cost accepted, want error")
	}
}

func TestOps(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{n: -1, want: 0},
		{n: 0, want: 0},
		{n: 1, want: 1},
		{n: 10, want: 1000},
	}
	for _, tt := range tests {
		if got := Ops(tt.n); got != tt.want {
			t.Errorf("Ops(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

// bruteForce finds the optimal assignment by enumerating permutations.
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			sum := 0.0
			for i, j := range perm {
				sum += cost[i][j]
			}
			if sum < best {
				best = sum
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	return best
}

// Property: Solve matches brute force on random small matrices.
func TestQuickSolveOptimal(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%6) + 1
		rng := rand.New(rand.NewSource(seed))
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*200-100) / 4
			}
		}
		got, total, err := Solve(cost)
		if err != nil || !isPermutation(got) {
			return false
		}
		return math.Abs(total-bruteForce(cost)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func isPermutation(xs []int) bool {
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if x < 0 || x >= len(xs) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cost := make([][]float64, n)
			for i := range cost {
				cost[i] = make([]float64, n)
				for j := range cost[i] {
					cost[i][j] = rng.Float64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 32:
		return "n=32"
	default:
		return "n=64"
	}
}
