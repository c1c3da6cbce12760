package lp

import "math"

// Basis is a warm-start handle: the simplex basis of a solved Problem,
// captured in model-level terms.  For every standard-form row (one per
// constraint, in insertion order) it records which column — a variable, a
// free variable's negative part, a constraint's slack, or a constraint's
// artificial — was basic there, and it records which nonbasic columns sat
// at their upper bound (the bounded standard form keeps every other
// nonbasic column at its lower bound, so only the at-upper set needs
// saving).  Because the entries are keyed by identities rather than column
// indices, a Basis stays meaningful after the Problem's bounds, right-hand
// sides, coefficients or costs are mutated, and even after
// re-standardization changes the column layout (e.g. a variable stops
// being free): a branch bound edited with SetBounds moves the at-upper
// value with it, which is what keeps milp's parent bases dual-feasible by
// construction.
//
// A Basis is immutable once captured and safe to share between solves; it is
// only ever read by SolveFrom.
type Basis struct {
	cols  []colIdent // basic column of row i, one per constraint
	upper []colIdent // nonbasic columns at their upper bound

	// Devex reference weights learned by the capturing solve, keyed like
	// everything else by column identity so they survive re-standardization.
	// Only weights above the unit reset value are stored (1 is what a fresh
	// framework assigns anyway), and a warm start under a non-devex rule
	// simply ignores them.
	devexCols []colIdent
	devexW    []float64
}

// captureBasis records the current basis, nonbasic-at-upper statuses and
// (under devex) learned reference weights of this standard form.  The
// weights arrive in sparse form — standard-form column indices paired with
// their >1 values — so a warm solve that never materialized a dense weight
// vector passes its carried entries through at O(entries), not O(columns).
func (s *standard) captureBasis(basis []int, atUpper []bool, devexCols []int, devexW []float64) *Basis {
	b := &Basis{cols: make([]colIdent, s.m)}
	for i, bc := range basis {
		b.cols[i] = s.colIDs[bc]
	}
	nUp := 0
	for _, up := range atUpper {
		if up {
			nUp++
		}
	}
	if nUp > 0 {
		b.upper = make([]colIdent, 0, nUp)
		for j, up := range atUpper {
			if up {
				b.upper = append(b.upper, s.colIDs[j])
			}
		}
	}
	if len(devexCols) > 0 {
		b.devexCols = make([]colIdent, 0, len(devexCols))
		b.devexW = make([]float64, 0, len(devexCols))
		for k, c := range devexCols {
			if wv := devexW[k]; wv > 1 && c < s.nCols {
				b.devexCols = append(b.devexCols, s.colIDs[c])
				b.devexW = append(b.devexW, wv)
			}
		}
	}
	return b
}

// column resolves a column identity against this standard form, or returns
// -1 when the identity names no column here.
func (s *standard) column(id colIdent) int {
	var cols []int
	switch id.kind {
	case identStruct:
		cols = s.colOf
	case identNeg:
		cols = s.negPart
	case identSlack:
		cols = s.slackOf
	case identArt:
		cols = s.artOf
	default:
		return -1
	}
	if id.idx < 0 || id.idx >= len(cols) {
		return -1
	}
	return cols[id.idx]
}

// installBasis maps a saved basis onto this standard form, returning one
// basic column per row plus the nonbasic-at-upper statuses and any carried
// devex reference weights in sparse form (nil when the basis carries none),
// all backed by the solve scratch, or false when the saved basis does not
// translate: the constraint count changed, a referenced column no longer
// exists (a variable stopped being free, the row lost its artificial after
// an rhs sign change) or two rows map to the same column.  At-upper
// statuses degrade instead of failing: a status whose column disappeared,
// became basic, lost its finite upper bound or became fixed simply starts
// at the lower bound — the warm solver's feasibility checks route any
// resulting mismatch to the dual simplex or the cold fallback.  Weights
// degrade the same way: an identity that no longer resolves is dropped.
func (s *standard) installBasis(w *Basis) ([]int, []bool, []int, []float64, bool) {
	if w == nil || s.m == 0 || len(w.cols) != s.m {
		return nil, nil, nil, nil, false
	}
	scr := s.scr
	scr.basis = grow(scr.basis, s.m)
	scr.used = cleared(scr.used, s.nCols)
	scr.atUpper = cleared(scr.atUpper, s.nCols)
	basis, used, atUpper := scr.basis, scr.used, scr.atUpper
	for i := 0; i < s.m; i++ {
		c := s.column(w.cols[i])
		if c < 0 || used[c] {
			return nil, nil, nil, nil, false
		}
		used[c] = true
		basis[i] = c
	}
	for _, cid := range w.upper {
		c := s.column(cid)
		if c < 0 || used[c] {
			continue
		}
		if u := s.upper[c]; u == 0 || math.IsInf(u, 1) {
			continue
		}
		atUpper[c] = true
	}
	var dvxCols []int
	var dvxW []float64
	if len(w.devexW) > 0 {
		scr.carriedIdx = grow(scr.carriedIdx, len(w.devexW))
		scr.carriedW = grow(scr.carriedW, len(w.devexW))
		dvxCols, dvxW = scr.carriedIdx[:0], scr.carriedW[:0]
		for k, cid := range w.devexCols {
			if c := s.column(cid); c >= 0 {
				if wv := w.devexW[k]; wv > 1 {
					dvxCols = append(dvxCols, c)
					dvxW = append(dvxW, wv)
				}
			}
		}
	}
	return basis, atUpper, dvxCols, dvxW, true
}

// emptyBasis is the capture for a rowless standard form: no basic
// columns, and columns parked at a finite nonzero upper bound record their
// at-upper status.
func (s *standard) emptyBasis(vals []float64) *Basis {
	b := &Basis{cols: []colIdent{}}
	for j := 0; j < s.nTotal; j++ {
		if u := s.upper[j]; u > 0 && !math.IsInf(u, 1) && vals[j] == u {
			b.upper = append(b.upper, s.colIDs[j])
		}
	}
	return b
}
