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
//
// A Problem keeps its standard form across solves.  Building it is two
// passes: layout fixes everything that depends on the model's shape and
// signs (column assignment, slacks and artificials, the CSC sparsity
// pattern, and where each model term lands in it), and refill writes the
// numbers (b, c, upper, shift, the CSC values and the row mirror) in place.
// A solve after data-only edits runs refill alone; layout reruns when an
// edit no longer fits: a variable or constraint added, a variable changing
// between shifted, mirrored and split, a row whose shifted right-hand side
// changes sign, or an accumulated coefficient moving to or from zero.
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

	// rowNeg[i] records that row i's shifted right-hand side was negative
	// at layout time, so the row is stored negated (LE and GE swapped).
	rowNeg  []bool
	laidOut bool

	// rowSums's accumulator over the structural columns: acc[c] is the
	// last summed row's coefficient on column c for each c in touched (its
	// distinct columns, in first-touch order); mark is false outside
	// rowSums.
	acc     []float64
	mark    []bool
	touched []int

	// Row-major mirror of the CSC nonzeros over the priced columns
	// (j < nTotal), built lazily by buildRows for the pivot-update scatter;
	// rowPos maps a CSC position to its mirror position so refill can
	// rewrite the values in place.  rowsOK is false until the mirror
	// matches the current layout.
	rowPtr  []int
	rowCols []int
	rowVals []float64
	rowPos  []int
	rowsOK  bool

	// scr is the owning Problem's solve scratch.
	scr *solveScratch
}

// solveScratch holds the solver state reused across a Problem's solves.  A
// Problem is documented not safe for concurrent use, so its solves are
// sequential and one set suffices; nothing carved from here escapes into a
// Solution or a Basis (values, basis captures and devex weight captures are
// all freshly copied out).
type solveScratch struct {
	sv     solver      // vectors, LU factors and eta file keep their capacity
	dvx    devexPricer // its dual weights and dense primal weights likewise
	stats  Stats
	devexW []float64 // backs dvx.w once materialized

	// installBasis's translation of a warm basis; solveCold reuses basis.
	basis   []int
	used    []bool
	atUpper []bool

	phase1 []float64 // the phase-1 objective
	values []float64 // standard-form values of a finished solve
	next   []int     // per-column (or per-row) cursors of layout, refill and buildRows

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

// grow returns s resized to n, reusing its storage when the capacity
// allows.  The contents are unspecified: callers overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cleared is grow with every element zeroed.
func cleared[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// col returns column j's nonzeros.
func (s *standard) col(j int) ([]int, []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.rowIdx[lo:hi], s.vals[lo:hi]
}

// buildRows materializes the row-major mirror of the priced columns
// (j < nTotal; artificials never re-enter pricing).  One counting sort over
// the CSC nonzeros, done once per layout on first use; refill keeps the
// values current after that.
func (s *standard) buildRows() {
	if s.rowsOK {
		return
	}
	end := s.colPtr[s.nTotal]
	s.rowPtr = cleared(s.rowPtr, s.m+1)
	s.rowCols = grow(s.rowCols, end)
	s.rowVals = grow(s.rowVals, end)
	s.rowPos = grow(s.rowPos, end)
	ptr := s.rowPtr
	for _, r := range s.rowIdx[:end] {
		ptr[r+1]++
	}
	for r := 0; r < s.m; r++ {
		ptr[r+1] += ptr[r]
	}
	s.scr.next = grow(s.scr.next, s.m)
	next := s.scr.next
	copy(next, ptr[:s.m])
	for j := 0; j < s.nTotal; j++ {
		for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
			r := s.rowIdx[p]
			k := next[r]
			next[r] = k + 1
			s.rowCols[k] = j
			s.rowVals[k] = s.vals[p]
			s.rowPos[p] = k
		}
	}
	s.rowsOK = true
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

// standardize returns the Problem's computational standard form, brought up
// to date with the model: refill alone when the edits since the last solve
// kept the layout, layout then refill otherwise.
func (p *Problem) standardize() *standard {
	s := &p.std
	if !s.laidOut || !p.refill(s) {
		p.layout(s)
		p.refill(s) // a fresh layout always fits
	}
	return s
}

// boundForm classifies a variable's bounds: mirrored (lb = −∞, ub finite:
// y = ub − x), split (doubly free: x = x⁺ − x⁻) or shifted (y = x − lb),
// with the offset the column is measured from.
func boundForm(v variable) (mirror, split bool, shift float64) {
	switch {
	case !math.IsInf(v.lb, -1):
		return false, false, v.lb
	case !math.IsInf(v.ub, 1):
		return true, false, v.ub
	default:
		return false, true, 0
	}
}

// layout assigns the standard form's columns and sparsity pattern for the
// current model: structural columns (one per variable, two per doubly-free
// one), each row's sign normalization (b ≥ 0 swaps LE and GE) and with it
// its slack/surplus and artificial, and the CSC pattern of the nonzero
// coefficients.  b, c, the structural upper bounds and the structural CSC
// values are left to refill.
func (p *Problem) layout(s *standard) {
	s.scr = &p.scr
	n := len(p.vars)
	s.shift = grow(s.shift, n)
	s.mirror = grow(s.mirror, n)
	s.negPart = grow(s.negPart, n)
	s.colOf = grow(s.colOf, n)
	col := 0
	for j, v := range p.vars {
		mirror, split, shift := boundForm(v)
		s.colOf[j], s.mirror[j], s.shift[j], s.negPart[j] = col, mirror, shift, -1
		col++
		if split {
			s.negPart[j] = col
			col++
		}
	}
	s.nStruct = col
	s.acc = grow(s.acc, s.nStruct)
	s.mark = cleared(s.mark, s.nStruct)

	// Row signs, slack/surplus counts and each structural column's nonzero
	// count.
	m := len(p.cons)
	s.m = m
	s.rowNeg = grow(s.rowNeg, m)
	s.scr.next = cleared(s.scr.next, s.nStruct)
	counts := s.scr.next
	nSlack := 0
	for i, c := range p.cons {
		s.rowNeg[i] = p.rowSums(s, i) < 0
		for _, col := range s.touched {
			if s.acc[col] != 0 {
				counts[col]++
			}
		}
		if c.op != EQ {
			nSlack++
		}
	}
	s.nTotal = s.nStruct + nSlack

	s.slackOf = grow(s.slackOf, m)
	s.artOf = grow(s.artOf, m)
	slackCol := s.nStruct
	artCol := s.nTotal
	for i := range p.cons {
		s.slackOf[i], s.artOf[i] = -1, -1
		switch s.rowOp(p, i) {
		case LE:
			s.slackOf[i] = slackCol
			slackCol++
		case GE:
			s.slackOf[i] = slackCol
			slackCol++
			s.artOf[i] = artCol
			artCol++
		case EQ:
			s.artOf[i] = artCol
			artCol++
		}
	}
	s.nCols = artCol

	// Objective and upper bounds of the slack and artificial columns (the
	// structural ones are refill's), and every column's identity, in model
	// indices so a Basis survives a re-layout.
	s.b = grow(s.b, m)
	s.c = grow(s.c, s.nCols)
	s.upper = grow(s.upper, s.nCols)
	for j := s.nStruct; j < s.nCols; j++ {
		s.c[j] = 0
		s.upper[j] = math.Inf(1)
	}
	s.colIDs = grow(s.colIDs, s.nCols)
	for j := range p.vars {
		s.colIDs[s.colOf[j]] = colIdent{kind: identStruct, idx: j}
		if s.negPart[j] >= 0 {
			s.colIDs[s.negPart[j]] = colIdent{kind: identNeg, idx: j}
		}
	}
	for i := 0; i < m; i++ {
		if sc := s.slackOf[i]; sc >= 0 {
			s.colIDs[sc] = colIdent{kind: identSlack, idx: i}
		}
		if a := s.artOf[i]; a >= 0 {
			s.colIDs[a] = colIdent{kind: identArt, idx: i}
		}
	}

	// CSC pattern: every slack/surplus and artificial column holds exactly
	// one nonzero, whose value the row's sign and operator fix.  Filling
	// structural columns row by row keeps their row indices ascending.
	s.colPtr = grow(s.colPtr, s.nCols+1)
	s.colPtr[0] = 0
	for c := 0; c < s.nCols; c++ {
		k := 1
		if c < s.nStruct {
			k = counts[c]
		}
		s.colPtr[c+1] = s.colPtr[c] + k
	}
	nnz := s.colPtr[s.nCols]
	s.rowIdx = grow(s.rowIdx, nnz)
	s.vals = grow(s.vals, nnz)
	next := counts
	copy(next, s.colPtr[:s.nStruct])
	for i := 0; i < m; i++ {
		p.rowSums(s, i)
		for _, col := range s.touched {
			if s.acc[col] != 0 {
				s.rowIdx[next[col]] = i
				next[col]++
			}
		}
		if sc := s.slackOf[i]; sc >= 0 {
			s.rowIdx[s.colPtr[sc]] = i
			s.vals[s.colPtr[sc]] = 1
			if s.rowOp(p, i) == GE {
				s.vals[s.colPtr[sc]] = -1
			}
		}
		if a := s.artOf[i]; a >= 0 {
			s.rowIdx[s.colPtr[a]] = i
			s.vals[s.colPtr[a]] = 1
		}
	}
	s.rowsOK = false
	s.laidOut = true
}

// rowOp is constraint i's operator after the layout's sign normalization: a
// row stored negated turns LE into GE and back.
func (s *standard) rowOp(p *Problem, i int) Op {
	op := p.cons[i].op
	if s.rowNeg[i] {
		switch op {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return op
}

// rowSums accumulates constraint i's standard-form coefficients into acc,
// term by term in insertion order, lists the structural columns they touch
// in touched, and returns the row's shifted right-hand side before sign
// normalization.
func (p *Problem) rowSums(s *standard, i int) float64 {
	s.touched = s.touched[:0]
	add := func(col int, v float64) {
		if !s.mark[col] {
			s.mark[col] = true
			s.acc[col] = 0
			s.touched = append(s.touched, col)
		}
		s.acc[col] += v
	}
	c := &p.cons[i]
	rhs := c.rhs
	for _, t := range c.terms {
		j := int(t.Var)
		rhs -= t.Coeff * s.shift[j]
		sgn := 1.0
		if s.mirror[j] {
			sgn = -1
		}
		add(s.colOf[j], sgn*t.Coeff)
		if neg := s.negPart[j]; neg >= 0 {
			add(neg, -t.Coeff)
		}
	}
	for _, col := range s.touched {
		s.mark[col] = false
	}
	return rhs
}

// refill is the data pass: it rewrites shift, c, the structural upper
// bounds, b, the structural CSC values and (when built) the row mirror from
// the model, in place.  It returns false — having possibly written part of
// the form, which the caller's re-layout then rebuilds — as soon as the
// model no longer fits the layout.  Rows are visited in order, so each
// structural column's next CSC slot belongs to the next row that has a
// nonzero there.
func (p *Problem) refill(s *standard) bool {
	if len(p.vars) != len(s.colOf) || len(p.cons) != s.m {
		return false
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for j, v := range p.vars {
		mirror, split, shift := boundForm(v)
		if mirror != s.mirror[j] || split != (s.negPart[j] >= 0) {
			return false
		}
		s.shift[j] = shift
		sgn := 1.0
		if mirror {
			sgn = -1
		}
		c := s.colOf[j]
		s.c[c] = sign * sgn * v.cost
		s.upper[c] = math.Inf(1)
		if split {
			s.c[s.negPart[j]] = -sign * v.cost
			s.upper[s.negPart[j]] = math.Inf(1)
		} else if !mirror && !math.IsInf(v.ub, 1) {
			s.upper[c] = v.ub - v.lb
		}
	}
	s.scr.next = grow(s.scr.next, s.nStruct)
	next := s.scr.next
	copy(next, s.colPtr[:s.nStruct])
	for i := range p.cons {
		rhs := p.rowSums(s, i)
		neg := rhs < 0
		if neg != s.rowNeg[i] {
			return false
		}
		if neg {
			rhs = -rhs
		}
		s.b[i] = rhs
		for _, col := range s.touched {
			v := s.acc[col]
			if neg {
				v = -v
			}
			pos := next[col]
			held := pos < s.colPtr[col+1] && s.rowIdx[pos] == i
			if (v != 0) != held {
				return false
			}
			if !held {
				continue
			}
			next[col]++
			s.vals[pos] = v
			if s.rowsOK {
				s.rowVals[s.rowPos[pos]] = v
			}
		}
	}
	return true
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
