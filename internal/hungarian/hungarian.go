// Package hungarian implements the Hungarian (Kuhn-Munkres) assignment
// algorithm in O(n^3).
//
// HCPerf's motivating observation is that the configurable sensor-fusion
// task runs Hungarian matching over the n obstacles detected at runtime, so
// its execution time scales with scene complexity. This package provides
// both the real algorithm (used by the execution-time model and the
// wall-clock "hardware" executor to generate genuinely scene-dependent
// compute) and a cost-model helper used by the discrete-event simulator.
//
// Repeated solves on the hot path should go through a Solver, which keeps
// its workspace across calls and allocates nothing in steady state; the
// package-level Solve and SolveRect are one-shot wrappers around a fresh
// Solver.
package hungarian

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSquare is returned when the cost matrix is ragged or empty rows are
// mixed with non-empty ones.
var ErrNotSquare = errors.New("hungarian: cost matrix must be square")

// Solver runs Hungarian matchings with a reusable workspace: potentials,
// augmenting-path state and the assignment buffer are kept across calls, so
// repeated solves of same-sized (or shrinking) problems allocate nothing.
// The zero value is ready to use. A Solver is not safe for concurrent use.
type Solver struct {
	u, v   []float64 // row/column potentials (1-based, index 0 sentinel)
	p, way []int     // matching and alternating-path back-pointers
	minv   []float64 // per-column minimum reduced cost
	used   []bool    // columns visited by the current augmenting search

	assign []int // assignment buffer returned by Solve

	// Rectangular-solve workspace: the square padded matrix is carved out
	// of one flat buffer, and the rectangular assignment gets its own
	// buffer because assign is occupied by the padded solution.
	padded     [][]float64
	padBuf     []float64
	rectAssign []int
}

// grow ensures the square-solve workspace covers an n x n problem.
func (s *Solver) grow(n int) {
	if cap(s.u) >= n+1 {
		s.u = s.u[:n+1]
		s.v = s.v[:n+1]
		s.p = s.p[:n+1]
		s.way = s.way[:n+1]
		s.minv = s.minv[:n+1]
		s.used = s.used[:n+1]
		return
	}
	s.u = make([]float64, n+1)
	s.v = make([]float64, n+1)
	s.p = make([]int, n+1)
	s.way = make([]int, n+1)
	s.minv = make([]float64, n+1)
	s.used = make([]bool, n+1)
}

// Solve computes a minimum-cost perfect matching on the square cost matrix
// cost (cost[i][j] = cost of assigning row i to column j). It returns the
// assignment as a slice where assignment[i] is the column matched to row i,
// along with the total cost.
//
// The implementation is the classic O(n^3) potential-based algorithm. An
// empty matrix yields an empty assignment and zero cost. The returned slice
// is owned by the Solver and overwritten by its next call; copy it if it
// must outlive the next solve.
func (s *Solver) Solve(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrNotSquare, i, len(row), n)
		}
		for j, c := range row {
			if math.IsNaN(c) {
				return nil, 0, fmt.Errorf("hungarian: NaN cost at (%d,%d)", i, j)
			}
		}
	}

	// Potentials u (rows) and v (columns), and matching p: p[j] = row
	// matched to column j. Index 0 is a sentinel; rows/cols are 1-based
	// internally.
	s.grow(n)
	// Reslicing the workspace to exactly n+1 here (not just inside grow)
	// lets the compiler prove every 0..n index below is in bounds, matching
	// the bounds-check elimination a fresh make([]T, n+1) would get.
	u, v := s.u[:n+1], s.v[:n+1]
	p, way := s.p[:n+1], s.way[:n+1]
	minv, used := s.minv[:n+1], s.used[:n+1]
	for j := 0; j <= n; j++ {
		u[j], v[j] = 0, 0
		p[j], way[j] = 0, 0
	}

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			// Hoist the loop invariants: u[i0] and the cost row do not
			// change inside the scan, but the compiler cannot prove the
			// persistent workspace doesn't alias them, so left in place
			// they would be reloaded on every iteration.
			ui0 := u[i0]
			row := cost[i0-1]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - ui0 - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	if cap(s.assign) < n {
		s.assign = make([]int, n)
	}
	assignment = s.assign[:n]
	for j := 1; j <= n; j++ {
		assignment[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		total += cost[i][assignment[i]]
	}
	return assignment, total, nil
}

// SolveRect computes a minimum-cost matching for a rectangular rows x cols
// cost matrix by padding the smaller dimension with zero-cost dummies.
// assignment[i] is the column matched to row i, or -1 if row i is matched
// to a dummy column. Like Solve, the returned slice is owned by the Solver
// and overwritten by its next call.
func (s *Solver) SolveRect(cost [][]float64) (assignment []int, total float64, err error) {
	rows := len(cost)
	if rows == 0 {
		return nil, 0, nil
	}
	cols := len(cost[0])
	for i, row := range cost {
		if len(row) != cols {
			return nil, 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrNotSquare, i, len(row), cols)
		}
	}
	n := rows
	if cols > n {
		n = cols
	}
	if cap(s.padBuf) < n*n {
		s.padBuf = make([]float64, n*n)
		s.padded = make([][]float64, 0, n)
	}
	buf := s.padBuf[:n*n]
	for k := range buf {
		buf[k] = 0
	}
	padded := s.padded[:0]
	for i := 0; i < n; i++ {
		row := buf[i*n : (i+1)*n]
		if i < rows {
			copy(row, cost[i])
		}
		padded = append(padded, row)
	}
	s.padded = padded
	full, _, err := s.Solve(padded)
	if err != nil {
		return nil, 0, err
	}
	if cap(s.rectAssign) < rows {
		s.rectAssign = make([]int, rows)
	}
	assignment = s.rectAssign[:rows]
	for i := 0; i < rows; i++ {
		j := full[i]
		if j >= cols {
			assignment[i] = -1
			continue
		}
		assignment[i] = j
		total += cost[i][j]
	}
	return assignment, total, nil
}

// Solve computes a minimum-cost perfect matching on the square cost matrix
// cost with a one-shot Solver; see Solver.Solve. The returned assignment is
// freshly allocated and owned by the caller.
func Solve(cost [][]float64) (assignment []int, total float64, err error) {
	var s Solver
	return s.Solve(cost)
}

// SolveRect computes a minimum-cost matching for a rectangular cost matrix
// with a one-shot Solver; see Solver.SolveRect. The returned assignment is
// freshly allocated and owned by the caller.
func SolveRect(cost [][]float64) (assignment []int, total float64, err error) {
	var s Solver
	return s.SolveRect(cost)
}

// Ops returns the approximate number of elementary operations the O(n^3)
// algorithm performs for an n x n problem. The execution-time model uses
// this to convert "n obstacles detected" into simulated compute time; the
// calibration constant lives in package exectime.
func Ops(n int) float64 {
	if n <= 0 {
		return 0
	}
	f := float64(n)
	return f * f * f
}
