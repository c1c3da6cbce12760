package lp

import (
	"errors"
	"math"
	"sort"
)

// luFactor is a sparse LU factorization of the basis matrix B, computed by
// the Gilbert–Peierls left-looking algorithm with partial pivoting: each
// basis column is triangular-solved against the L built so far (the nonzero
// pattern found by a depth-first search, so the work is proportional to the
// arithmetic actually performed), then the largest remaining entry is chosen
// as the pivot.  Columns are processed in ascending-nonzero-count order,
// which puts slack singletons first and keeps fill-in low on simplex bases.
//
// Storage: L is unit lower triangular, kept column-wise with both row and
// column indices in pivot order (rows are remapped after the factorization
// finishes); U is kept column-wise with its diagonal split out.  prow/pinv
// are the row permutation, q the column permutation (pivot step → basis
// position).
type luFactor struct {
	m int

	lColPtr []int
	lRows   []int
	lVals   []float64

	uColPtr []int
	uRows   []int
	uVals   []float64
	uDiag   []float64

	prow []int // pivot step -> original row
	pinv []int // original row -> pivot step (-1 while unpivoted)
	q    []int // pivot step -> basis position

	// failPos is the basis position whose column found no eligible pivot when
	// the last factorize returned errSingularBasis (-1 otherwise).  The
	// singular-basis repair ejects that column.
	failPos int

	// scratch, reused across factorizations.
	x        []float64
	pattern  []int
	topo     []int
	stackN   []int
	stackP   []int
	rowMark  []int32
	nodeMark []int32
	stamp    int32
	order    []int
}

var errSingularBasis = errors.New("lp: basis matrix is numerically singular")

// luPivotTiny is the absolute pivot threshold below which the basis is
// declared singular.
const luPivotTiny = 1e-11

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// factorize computes P·B·Q = L·U for the basis given as column indices into
// the standard form.
func (f *luFactor) factorize(st *standard, basis []int) error {
	m := len(basis)
	f.m = m
	f.failPos = -1
	forceSingular := faultsOn.Load() && faultFires(FaultSingularLU)
	f.lColPtr = append(f.lColPtr[:0], 0)
	f.lRows = f.lRows[:0]
	f.lVals = f.lVals[:0]
	f.uColPtr = append(f.uColPtr[:0], 0)
	f.uRows = f.uRows[:0]
	f.uVals = f.uVals[:0]
	f.uDiag = growFloats(f.uDiag, m)
	f.prow = growInts(f.prow, m)
	f.pinv = growInts(f.pinv, m)
	f.q = growInts(f.q, m)
	f.x = growFloats(f.x, m)
	f.rowMark = growInt32s(f.rowMark, m)
	f.nodeMark = growInt32s(f.nodeMark, m)
	if f.stamp == 0 {
		for i := range f.rowMark {
			f.rowMark[i] = 0
		}
		for i := range f.nodeMark {
			f.nodeMark[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.x[i] = 0
	}

	// Column order: fewest nonzeros first (stable on position for
	// determinism).  Slack and artificial singletons pivot immediately,
	// leaving only the structural "bump" for real elimination.
	f.order = growInts(f.order, m)
	for i := range f.order[:m] {
		f.order[i] = i
	}
	ord := f.order[:m]
	sort.SliceStable(ord, func(a, b int) bool {
		na := st.colPtr[basis[ord[a]]+1] - st.colPtr[basis[ord[a]]]
		nb := st.colPtr[basis[ord[b]]+1] - st.colPtr[basis[ord[b]]]
		return na < nb
	})

	for k := 0; k < m; k++ {
		pos := ord[k]
		rows, vals := st.col(basis[pos])

		f.stamp++
		if f.stamp == math.MaxInt32 {
			for i := range f.rowMark[:m] {
				f.rowMark[i] = 0
			}
			for i := range f.nodeMark[:m] {
				f.nodeMark[i] = 0
			}
			f.stamp = 1
		}
		stamp := f.stamp

		// Scatter the column and collect its pattern.
		f.pattern = f.pattern[:0]
		f.topo = f.topo[:0]
		for idx, r := range rows {
			f.x[r] = vals[idx]
			f.rowMark[r] = stamp
			f.pattern = append(f.pattern, r)
		}

		// Symbolic: DFS through L from every already-pivoted row of the
		// column; reverse postorder is a topological order of the
		// triangular-solve dependencies.
		for _, r := range rows {
			t := f.pinv[r]
			if t < 0 || f.nodeMark[t] == stamp {
				continue
			}
			f.nodeMark[t] = stamp
			f.stackN = append(f.stackN[:0], t)
			f.stackP = append(f.stackP[:0], f.lColPtr[t])
			for len(f.stackN) > 0 {
				top := len(f.stackN) - 1
				tt := f.stackN[top]
				p := f.stackP[top]
				if p < f.lColPtr[tt+1] {
					f.stackP[top]++
					rr := f.lRows[p]
					if f.rowMark[rr] != stamp {
						f.rowMark[rr] = stamp
						f.x[rr] = 0
						f.pattern = append(f.pattern, rr)
					}
					if tc := f.pinv[rr]; tc >= 0 && f.nodeMark[tc] != stamp {
						f.nodeMark[tc] = stamp
						f.stackN = append(f.stackN, tc)
						f.stackP = append(f.stackP, f.lColPtr[tc])
					}
				} else {
					f.stackN = f.stackN[:top]
					f.stackP = f.stackP[:top]
					f.topo = append(f.topo, tt)
				}
			}
		}

		// Numeric sparse triangular solve x = L⁻¹·column, in topological
		// order (reverse DFS postorder).
		for i := len(f.topo) - 1; i >= 0; i-- {
			t := f.topo[i]
			xt := f.x[f.prow[t]]
			if xt == 0 {
				continue
			}
			for p := f.lColPtr[t]; p < f.lColPtr[t+1]; p++ {
				f.x[f.lRows[p]] -= xt * f.lVals[p]
			}
		}

		// Partial pivoting over the unpivoted part of x.
		pr := -1
		best := 0.0
		for _, r := range f.pattern {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(f.x[r]); a > best {
				best = a
				pr = r
			}
		}
		if forceSingular && k == 0 {
			pr, best = -1, 0
		}
		if pr < 0 || best <= luPivotTiny {
			// Clear scratch before bailing so the next factorize starts clean.
			for _, r := range f.pattern {
				f.x[r] = 0
			}
			f.failPos = pos
			return errSingularBasis
		}
		pv := f.x[pr]

		// Store U column k (pivoted rows) and L column k (unpivoted rows,
		// scaled by the pivot).
		for _, r := range f.pattern {
			if t := f.pinv[r]; t >= 0 {
				if v := f.x[r]; v != 0 {
					f.uRows = append(f.uRows, t)
					f.uVals = append(f.uVals, v)
				}
			}
		}
		f.uColPtr = append(f.uColPtr, len(f.uRows))
		f.uDiag[k] = pv
		for _, r := range f.pattern {
			if f.pinv[r] < 0 && r != pr {
				if v := f.x[r]; v != 0 {
					f.lRows = append(f.lRows, r)
					f.lVals = append(f.lVals, v/pv)
				}
			}
		}
		f.lColPtr = append(f.lColPtr, len(f.lRows))

		f.prow[k] = pr
		f.pinv[pr] = k
		f.q[k] = pos
		for _, r := range f.pattern {
			f.x[r] = 0
		}
	}

	// Remap L's row indices from original rows to pivot order, so the solve
	// kernels below run entirely in pivot space.
	for p := range f.lRows {
		f.lRows[p] = f.pinv[f.lRows[p]]
	}
	return nil
}

// lsolve solves L·y = y in place (pivot space, unit diagonal).
func (f *luFactor) lsolve(y []float64) {
	for k := 0; k < f.m; k++ {
		v := y[k]
		if v == 0 {
			continue
		}
		for p := f.lColPtr[k]; p < f.lColPtr[k+1]; p++ {
			y[f.lRows[p]] -= v * f.lVals[p]
		}
	}
}

// usolve solves U·y = y in place.
func (f *luFactor) usolve(y []float64) {
	for k := f.m - 1; k >= 0; k-- {
		v := y[k] / f.uDiag[k]
		y[k] = v
		if v == 0 {
			continue
		}
		for p := f.uColPtr[k]; p < f.uColPtr[k+1]; p++ {
			y[f.uRows[p]] -= v * f.uVals[p]
		}
	}
}

// ltsolve solves Lᵀ·y = y in place.
func (f *luFactor) ltsolve(y []float64) {
	for k := f.m - 1; k >= 0; k-- {
		s := y[k]
		for p := f.lColPtr[k]; p < f.lColPtr[k+1]; p++ {
			s -= f.lVals[p] * y[f.lRows[p]]
		}
		y[k] = s
	}
}

// utsolve solves Uᵀ·y = y in place.
func (f *luFactor) utsolve(y []float64) {
	for k := 0; k < f.m; k++ {
		s := y[k]
		for p := f.uColPtr[k]; p < f.uColPtr[k+1]; p++ {
			s -= f.uVals[p] * y[f.uRows[p]]
		}
		y[k] = s / f.uDiag[k]
	}
}
