package lp

import "math"

// Standard-form column identities.  The revised simplex works on column
// indices of one particular standardization; a Basis must survive
// re-standardization after bound/rhs mutations, so it stores these
// model-level identities instead and installBasis maps them back to column
// indices.

const (
	identStruct = int8(iota) // structural column of variable idx
	identNeg                 // negative part of free variable idx
	identSlack               // slack/surplus column of constraint idx
	identArt                 // artificial column of constraint idx
)

// colIdent names a standard-form column.  For identSlack/identArt, idx is
// the constraint the column belongs to; rows themselves need no identity
// because the standard form has exactly one row per model constraint, in
// insertion order (variable bounds never spawn rows).
type colIdent struct {
	kind int8
	idx  int
}

// standard is the problem in computational bounded standard form —
// minimize c·y subject to A·y = b, 0 ≤ y ≤ u (u may be +Inf per column,
// and 0 for a fixed variable), b ≥ 0 — with A stored column-wise (CSC):
// column j's nonzeros are rowIdx/vals[colPtr[j]:colPtr[j+1]], row indices
// ascending.  Columns are laid out structural [0, nStruct), slack/surplus
// [nStruct, nTotal), artificial [nTotal, nCols).
//
// Variable bounds are implicit data, never rows: a variable with a finite
// lower bound is shifted (y = x − lb, u = ub − lb), a variable with lb = −∞
// but a finite upper bound is mirrored (y = ub − x, u = +∞, coefficients
// and cost negated), and only a doubly-free variable is split x = x⁺ − x⁻.
// The simplex keeps nonbasic columns at either bound (see revised.go), so
// tightening or relaxing a bound is a pure data edit: the row count — and
// with it the basis dimension and the LU — is always exactly the model's
// constraint count.
type standard struct {
	m       int
	nStruct int
	nTotal  int
	nCols   int

	colPtr []int
	rowIdx []int
	vals   []float64

	b []float64
	c []float64 // phase-2 objective (sense-normalized), zero on slack/artificial

	// upper[j] is column j's upper bound: ub−lb for shifted structural
	// columns (0 when the variable is fixed), +Inf for mirrored/split
	// structural columns and for every slack, surplus and artificial.
	upper []float64

	// slackOf[i]/artOf[i] is row i's slack/artificial column, or -1.
	slackOf []int
	artOf   []int

	colIDs []colIdent

	// shift maps original variable index to its lower bound (y = x − lb),
	// or to its upper bound when mirror[j] is set (y = ub − x).
	shift  []float64
	mirror []bool
	// negPart[j] is the column index of the negative part of original
	// variable j when it is doubly free (split x = x⁺ − x⁻), or -1.
	negPart []int

	// colOf maps each model variable to its primary structural column.
	colOf []int

	// Row-major mirror of the CSC nonzeros over the priced columns
	// (j < nTotal), built lazily by buildRows for the pivot-update scatter.
	rowPtr  []int
	rowCols []int
	rowVals []float64

	// scr is the owning Problem's solve scratch; the mirror above, the
	// solver's alpha row and the devex weight vectors are carved from it so
	// repeated solves (the milp/sched warm chains) reuse the buffers
	// instead of re-allocating them.  Nil-safe: a standalone standard just
	// allocates.
	scr *solveScratch
}

// solveScratch holds solve-lifetime buffers reused across a Problem's
// solves.  A Problem is documented not safe for concurrent use, so its
// solves are sequential and one set of buffers suffices; nothing carved
// from here escapes into a Solution or a Basis (values, basis captures and
// devex weight captures are all freshly copied out).
type solveScratch struct {
	rowPtr  []int
	rowCols []int
	rowVals []float64
	rowNext []int
	alpha   []float64
	devexW  []float64
	rowW    []float64

	// Sparse devex weight staging for the warm-start cycle: carried* backs
	// installBasis's mapped column/weight pairs (consumed by the solver's
	// first weight materialization), captured* backs devexWeights's
	// capture-time extraction (copied into the Basis by captureBasis).
	// Distinct pairs: the carried arrays can still be live — un-consumed —
	// when capture runs on a zero-pivot solve.
	carriedIdx  []int
	carriedW    []float64
	capturedIdx []int
	capturedW   []float64
}

// col returns column j's nonzeros.
func (s *standard) col(j int) ([]int, []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.rowIdx[lo:hi], s.vals[lo:hi]
}

// buildRows materializes the row-major mirror of the priced columns
// (j < nTotal; artificials never re-enter pricing).  One counting sort over
// the CSC nonzeros, done once per standard form on first use.
func (s *standard) buildRows() {
	if s.rowPtr != nil {
		return
	}
	end := s.colPtr[s.nTotal]
	var ptr, cols, next []int
	var vals []float64
	if s.scr != nil {
		ptr = growInts(s.scr.rowPtr, s.m+1)
		cols = growInts(s.scr.rowCols, end)
		vals = growFloats(s.scr.rowVals, end)
		next = growInts(s.scr.rowNext, s.m)
		s.scr.rowPtr, s.scr.rowCols, s.scr.rowVals, s.scr.rowNext = ptr, cols, vals, next
		for i := range ptr {
			ptr[i] = 0
		}
	} else {
		ptr = make([]int, s.m+1)
		cols = make([]int, end)
		vals = make([]float64, end)
		next = make([]int, s.m)
	}
	for _, r := range s.rowIdx[:end] {
		ptr[r+1]++
	}
	for r := 0; r < s.m; r++ {
		ptr[r+1] += ptr[r]
	}
	copy(next, ptr[:s.m])
	for j := 0; j < s.nTotal; j++ {
		for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
			r := s.rowIdx[p]
			k := next[r]
			next[r] = k + 1
			cols[k] = j
			vals[k] = s.vals[p]
		}
	}
	s.rowPtr, s.rowCols, s.rowVals = ptr, cols, vals
}

// scatterRows accumulates alpha[j] += (row r of A)·y[r] over the rows where
// y is nonzero — alpha = Aᵀ·y across every priced column in one sequential
// pass, instead of a per-column gather with its per-column slice overhead.
// The whole-row skip on y[r] == 0 is worth its branch: unlike a per-element
// skip it elides an entire row of multiply-adds.  alpha must arrive zeroed.
func (s *standard) scatterRows(y, alpha []float64) {
	s.buildRows()
	for r := 0; r < s.m; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		for p := s.rowPtr[r]; p < s.rowPtr[r+1]; p++ {
			alpha[s.rowCols[p]] += s.rowVals[p] * yr
		}
	}
}

// colDot returns column j · y, with y indexed by row.  The multiply-add is
// unconditional on purpose: y's zero pattern is data-dependent (a BTRAN row
// of the inverse), so a skip branch mispredicts far more than the multiply
// it saves costs.
func (s *standard) colDot(j int, y []float64) float64 {
	rows, vals := s.col(j)
	d := 0.0
	for k, r := range rows {
		d += vals[k] * y[r]
	}
	return d
}

// standardize converts the model into computational standard form.
func (p *Problem) standardize() (*standard, error) {
	n := len(p.vars)
	std := &standard{
		shift:   make([]float64, n),
		mirror:  make([]bool, n),
		negPart: make([]int, n),
		scr:     &p.scr,
	}

	// Structural columns: one per variable, plus one extra per
	// doubly-free variable (x = x⁺ − x⁻ when lb = −inf and ub = +inf).
	// sgn[j] is the coefficient multiplier of variable j's primary column
	// (−1 when mirrored).
	col := 0
	colOf := make([]int, n)
	sgn := make([]float64, n)
	for j, v := range p.vars {
		std.negPart[j] = -1
		sgn[j] = 1
		colOf[j] = col
		switch {
		case !math.IsInf(v.lb, -1):
			std.shift[j] = v.lb
			col++
		case !math.IsInf(v.ub, 1):
			// lb = −∞, ub finite: mirror y = ub − x.
			std.mirror[j] = true
			std.shift[j] = v.ub
			sgn[j] = -1
			col++
		default:
			std.shift[j] = 0
			col++
			std.negPart[j] = col
			col++
		}
	}
	std.nStruct = col
	std.colOf = colOf

	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}

	// Rows: exactly the original constraints, in insertion order.
	type row struct {
		coeffs map[int]float64
		op     Op
		rhs    float64
	}
	rows := make([]row, 0, len(p.cons))
	for _, c := range p.cons {
		r := row{coeffs: make(map[int]float64, len(c.terms)), op: c.op, rhs: c.rhs}
		for _, t := range c.terms {
			j := int(t.Var)
			r.rhs -= t.Coeff * std.shift[j]
			r.coeffs[colOf[j]] += sgn[j] * t.Coeff
			if std.negPart[j] >= 0 {
				r.coeffs[std.negPart[j]] -= t.Coeff
			}
		}
		rows = append(rows, r)
	}

	m := len(rows)
	std.m = m
	std.b = make([]float64, m)
	std.slackOf = make([]int, m)
	std.artOf = make([]int, m)

	// Normalize to b ≥ 0 and count slack/surplus columns.
	nSlack := 0
	for i := range rows {
		if rows[i].rhs < 0 {
			for c := range rows[i].coeffs {
				rows[i].coeffs[c] = -rows[i].coeffs[c]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].op {
			case LE:
				rows[i].op = GE
			case GE:
				rows[i].op = LE
			}
		}
		if rows[i].op != EQ {
			nSlack++
		}
	}
	std.nTotal = std.nStruct + nSlack

	slackCol := std.nStruct
	artCol := std.nTotal
	for i := range rows {
		std.b[i] = rows[i].rhs
		std.slackOf[i], std.artOf[i] = -1, -1
		switch rows[i].op {
		case LE:
			std.slackOf[i] = slackCol
			slackCol++
		case GE:
			std.slackOf[i] = slackCol
			slackCol++
			std.artOf[i] = artCol
			artCol++
		case EQ:
			std.artOf[i] = artCol
			artCol++
		}
	}
	std.nCols = artCol

	// Objective and upper bounds over the standard-form columns.
	std.c = make([]float64, std.nCols)
	std.upper = make([]float64, std.nCols)
	for j := range std.upper {
		std.upper[j] = math.Inf(1)
	}
	for j, v := range p.vars {
		std.c[colOf[j]] = sign * sgn[j] * v.cost
		if std.negPart[j] >= 0 {
			std.c[std.negPart[j]] = -sign * v.cost
		}
		if !math.IsInf(v.lb, -1) && !math.IsInf(v.ub, 1) {
			std.upper[colOf[j]] = v.ub - v.lb
		}
	}

	// Column identities, in model indices so a Basis survives
	// re-standardization.
	std.colIDs = make([]colIdent, std.nCols)
	for j := range p.vars {
		std.colIDs[colOf[j]] = colIdent{kind: identStruct, idx: j}
		if std.negPart[j] >= 0 {
			std.colIDs[std.negPart[j]] = colIdent{kind: identNeg, idx: j}
		}
	}
	for i := range rows {
		if s := std.slackOf[i]; s >= 0 {
			std.colIDs[s] = colIdent{kind: identSlack, idx: i}
		}
		if a := std.artOf[i]; a >= 0 {
			std.colIDs[a] = colIdent{kind: identArt, idx: i}
		}
	}

	// CSC assembly.  Counting then filling row-by-row keeps every column's
	// row indices ascending and the layout deterministic (each (row, column)
	// pair appears exactly once, so per-row map iteration order is
	// irrelevant).
	counts := make([]int, std.nCols+1)
	for i := range rows {
		for c, v := range rows[i].coeffs {
			if v != 0 {
				counts[c+1]++
			}
		}
		if std.slackOf[i] >= 0 {
			counts[std.slackOf[i]+1]++
		}
		if std.artOf[i] >= 0 {
			counts[std.artOf[i]+1]++
		}
	}
	for c := 0; c < std.nCols; c++ {
		counts[c+1] += counts[c]
	}
	std.colPtr = counts
	nnz := std.colPtr[std.nCols]
	std.rowIdx = make([]int, nnz)
	std.vals = make([]float64, nnz)
	next := make([]int, std.nCols)
	copy(next, std.colPtr[:std.nCols])
	for i := range rows {
		for c, v := range rows[i].coeffs {
			if v == 0 {
				continue
			}
			pos := next[c]
			next[c]++
			std.rowIdx[pos] = i
			std.vals[pos] = v
		}
		if sc := std.slackOf[i]; sc >= 0 {
			sv := 1.0
			if rows[i].op == GE {
				sv = -1
			}
			pos := next[sc]
			next[sc]++
			std.rowIdx[pos] = i
			std.vals[pos] = sv
		}
		if ac := std.artOf[i]; ac >= 0 {
			pos := next[ac]
			next[ac]++
			std.rowIdx[pos] = i
			std.vals[pos] = 1
		}
	}
	return std, nil
}

// recover maps standard-form column values back to the original variables.
func (s *standard) recover(values []float64) []float64 {
	out := make([]float64, len(s.shift))
	for j := range s.shift {
		v := values[s.colOf[j]]
		switch {
		case s.mirror[j]:
			v = s.shift[j] - v
		case s.negPart[j] >= 0:
			v -= values[s.negPart[j]]
			v += s.shift[j]
		default:
			v += s.shift[j]
		}
		out[j] = v
	}
	return out
}
