package lp

import (
	"math"
	"time"
)

// Revised-simplex tuning.
const (
	// refactorEvery bounds the eta file: after this many pivots the basis
	// is refactorized from scratch, the basic solution recomputed exactly,
	// and the reduced-cost row rebuilt, so product-form drift is capped.
	refactorEvery = 64
	// refreshEvery bounds how stale the incrementally maintained
	// reduced-cost row may get between exact rebuilds.
	refreshEvery = 64
	// feasTol is the primal feasibility tolerance on basic values (against
	// both bounds).
	feasTol = 1e-9
	// dualTol is the dual feasibility tolerance for accepting a warm basis
	// as a dual-simplex starting point.
	dualTol = 1e-7
	// artValueTol is the largest basic artificial value a finished solve may
	// carry before the result is rejected (phase-1 objective check, and the
	// warm-start safety net).
	artValueTol = 1e-6
	// stallAfter is the run of consecutive zero-step (degenerate) pivots
	// after which pricing switches to Bland's rule for the rest of the solve
	// — the anti-cycling rung of the recovery ladder, fired long before the
	// blind iteration-count switch would kick in.
	stallAfter = 512
	// maxBasisRepairs caps how many singular-basis repairs (ejecting the
	// offending basic column to a slack) one refactorization may attempt.
	maxBasisRepairs = 4
	// maxNaNRetries caps how many non-finite FTRAN/BTRAN results a single
	// solve may recover from by refactorizing before giving up.
	maxNaNRetries = 3
)

// etaFile is the product-form update sequence: after pivot k on basis
// position r with FTRAN column d, the new basis inverse is Fₖ⁻¹·B⁻¹ with
// Fₖ = I + (d − e_r)·e_rᵀ, so FTRAN applies the Fₖ⁻¹ in order and BTRAN
// applies their transposes in reverse.  Vectors are stored sparse (pivot
// value split out), indexed by basis position.
type etaFile struct {
	pos []int
	piv []float64
	ptr []int
	idx []int
	val []float64
}

func (e *etaFile) reset() {
	e.pos = e.pos[:0]
	e.piv = e.piv[:0]
	e.ptr = append(e.ptr[:0], 0)
	e.idx = e.idx[:0]
	e.val = e.val[:0]
}

func (e *etaFile) count() int { return len(e.pos) }

// push records the eta of a pivot on position r with FTRAN column w.
func (e *etaFile) push(r int, w []float64) {
	pv := w[r]
	if faultsOn.Load() && faultFires(FaultCorruptEta) {
		pv = 0 // a later FTRAN/BTRAN through this eta divides by zero
	}
	e.pos = append(e.pos, r)
	e.piv = append(e.piv, pv)
	for i, v := range w {
		if v != 0 && i != r {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	e.ptr = append(e.ptr, len(e.idx))
}

// ftran applies the eta inverses in order: x ← Fₖ⁻¹·x.
func (e *etaFile) ftran(x []float64) {
	for k := 0; k < len(e.pos); k++ {
		r := e.pos[k]
		xr := x[r]
		if xr == 0 {
			continue
		}
		t := xr / e.piv[k]
		x[r] = t
		for p := e.ptr[k]; p < e.ptr[k+1]; p++ {
			x[e.idx[p]] -= t * e.val[p]
		}
	}
}

// btran applies the eta inverse transposes in reverse order: y ← Fₖ⁻ᵀ·y.
func (e *etaFile) btran(y []float64) {
	for k := len(e.pos) - 1; k >= 0; k-- {
		// Unconditional multiply-add: y's zero pattern is data-dependent, so
		// a skip branch mispredicts far more than the multiply it saves.
		s := 0.0
		for p := e.ptr[k]; p < e.ptr[k+1]; p++ {
			s += e.val[p] * y[e.idx[p]]
		}
		r := e.pos[k]
		y[r] = (y[r] - s) / e.piv[k]
	}
}

// solver holds the revised-simplex working state for one standard form.
// Every column is basic, nonbasic at its lower bound (value 0), or
// nonbasic at its upper bound (value upper[j]); atUpper tracks the last
// case and is false for every basic column by invariant.
type solver struct {
	std *standard
	m   int

	basis   []int  // basis[i] = column basic at position i
	basic   []bool // per column
	atUpper []bool // per column; nonbasic-at-upper-bound status
	xB      []float64

	lu  luFactor
	eta etaFile

	cost    []float64 // active objective (phase 1 or phase 2), len nCols
	reduced []float64 // maintained reduced costs, len nTotal
	stale   int       // pivots since the last exact rebuild

	// Pricing (pricing.go).  pr is the pricing rule; dvx aliases it when
	// the rule is devex (nil under a test reference rule), for the
	// devex-only hooks: the dual simplex's weighted leaving-row scan and
	// the warm-start weight carry.
	pr  pricer
	dvx *devexPricer

	sinceRefactor int

	// Resilience state.
	ctl         solveControl // budgets
	stats       *Stats       // never nil; counters for the recovery ladder
	stallRun    int          // consecutive zero-step pivots
	nanRetries  int          // non-finite recoveries spent
	blandForced bool         // stall detector latched Bland's rule on
	blandOnly   bool         // the latch never releases (Bland reference rule)

	// scratch, len m.
	w, y, rowScratch, rho []float64

	// alpha is the pivot-update scratch, len nTotal: the scattered row
	// alpha = Aᵀρ that the reduced-cost update, devex weight update and
	// dual ratio test all read (see standard.scatterRows).
	alpha []float64
}

// newSolver readies the Problem's reused solver for a solve of std: every
// vector is resized to the current form and zeroed, while the LU factors
// and the eta file keep their storage (both reinitialize on the first
// factorization).
func newSolver(std *standard, ctl *solveControl, stats *Stats) *solver {
	s := &std.scr.sv
	m := std.m
	*s = solver{
		std:        std,
		m:          m,
		stats:      stats,
		lu:         s.lu,
		eta:        s.eta,
		basis:      cleared(s.basis, m),
		basic:      cleared(s.basic, std.nCols),
		atUpper:    cleared(s.atUpper, std.nCols),
		xB:         cleared(s.xB, m),
		reduced:    cleared(s.reduced, std.nTotal),
		w:          cleared(s.w, m),
		y:          cleared(s.y, m),
		rowScratch: cleared(s.rowScratch, m),
		rho:        cleared(s.rho, m),
		alpha:      cleared(s.alpha, std.nTotal),
	}
	if ctl != nil {
		s.ctl = *ctl
	}
	if s.ctl.ref != nil {
		s.pr = s.ctl.ref(s)
		return s
	}
	s.dvx = newDevexPricer(std)
	s.pr = s.dvx
	return s
}

func (s *solver) setBasis(basis []int) {
	copy(s.basis, basis)
	for j := range s.basic {
		s.basic[j] = false
	}
	for _, b := range basis {
		s.basic[b] = true
	}
}

// ftranVec solves B·out = x, with x indexed by row and out by basis
// position.  x is consumed as scratch.
func (s *solver) ftranVec(x, out []float64) {
	f := &s.lu
	for k := 0; k < s.m; k++ {
		s.y[k] = x[f.prow[k]]
	}
	f.lsolve(s.y)
	f.usolve(s.y)
	for k := 0; k < s.m; k++ {
		out[f.q[k]] = s.y[k]
	}
	s.eta.ftran(out)
}

// ftranCol solves B·w = A_j for standard-form column j, into s.w.
func (s *solver) ftranCol(j int) []float64 {
	rows, vals := s.std.col(j)
	x := s.rowScratch
	for i := range x {
		x[i] = 0
	}
	for k, r := range rows {
		x[r] = vals[k]
	}
	s.ftranVec(x, s.w)
	if faultsOn.Load() && faultFires(FaultPoisonPivot) {
		s.w[0] = math.NaN()
	}
	return s.w
}

// btranVec solves Bᵀ·out = c, with c indexed by basis position and out by
// row.  c is not modified.
func (s *solver) btranVec(c, out []float64) {
	f := &s.lu
	w := s.y
	copy(w, c)
	s.eta.btran(w)
	for k := 0; k < s.m; k++ {
		s.rowScratch[k] = w[f.q[k]]
	}
	copy(w, s.rowScratch)
	f.utsolve(w)
	f.ltsolve(w)
	for k := 0; k < s.m; k++ {
		out[f.prow[k]] = w[k]
	}
}

// btranUnit solves Bᵀ·rho = e_p for basis position p: rho is row p of the
// basis inverse, indexed by row — the pricing vector of the incremental
// reduced-cost update and of the dual-simplex row scan.
func (s *solver) btranUnit(p int, out []float64) {
	c := s.rowScratch
	for i := range c {
		c[i] = 0
	}
	c[p] = 1
	s.btranVec(c, out)
}

// refactorize rebuilds the LU factors of the current basis, clears the eta
// file and recomputes the basic solution exactly from the nonbasic
// statuses: B·xB = b − Σ over nonbasic-at-upper columns of uⱼ·Aⱼ.
func (s *solver) refactorize() error {
	if err := s.lu.factorize(s.std, s.basis); err != nil {
		return err
	}
	s.stats.Refactorizations++
	s.eta.reset()
	s.sinceRefactor = 0
	copy(s.rowScratch, s.std.b)
	for j := 0; j < s.std.nTotal; j++ {
		if !s.atUpper[j] {
			continue
		}
		u := s.std.upper[j]
		if u == 0 {
			continue
		}
		rows, vals := s.std.col(j)
		for k, r := range rows {
			s.rowScratch[r] -= u * vals[k]
		}
	}
	s.ftranVec(s.rowScratch, s.xB)
	s.clampXB()
	return nil
}

// clampBound snaps roundoff just outside [0, u] back onto the violated
// bound (the revised-simplex analogue of the dense pivot's rhs clamp).
func clampBound(v, u float64) float64 {
	if v < 0 {
		if v > -feasTol {
			return 0
		}
		return v
	}
	if v > u && v < u+feasTol {
		return u
	}
	return v
}

// clampXB applies clampBound to every basic value.
func (s *solver) clampXB() {
	for i, v := range s.xB {
		s.xB[i] = clampBound(v, s.std.upper[s.basis[i]])
	}
}

// rebuildReduced recomputes the reduced-cost row exactly: one BTRAN of the
// basic costs, then one pass over the CSC nonzeros.
func (s *solver) rebuildReduced() {
	cB := s.rowScratch
	for k := 0; k < s.m; k++ {
		cB[k] = s.cost[s.basis[k]]
	}
	dual := s.w // safe: callers treat w as dead across rebuilds
	s.btranVec(cB, dual)
	for j := 0; j < s.std.nTotal; j++ {
		s.reduced[j] = s.cost[j] - s.std.colDot(j, dual)
	}
	s.stale = 0
	if s.dvx != nil {
		s.dvx.cached = cachedNone // the row changed under the fused pick
	}
}

// pickEntering nominates the entering column from the maintained
// reduced-cost row.  Eligibility is signed by bound status: a column at its
// lower bound improves by increasing (reduced cost < −ε), one at its upper
// bound by decreasing (reduced cost > +ε); fixed columns (u = 0) cannot
// move and are never priced.  Dantzig's most-violating rule by default, or
// Bland's least-index rule once the iteration count suggests degenerate
// stalling.
func (s *solver) pickEntering(useBland bool) int {
	entering := -1
	best := epsilon
	for j := 0; j < s.std.nTotal; j++ {
		if s.basic[j] || s.std.upper[j] == 0 {
			continue
		}
		score := -s.reduced[j]
		if s.atUpper[j] {
			score = -score
		}
		if useBland {
			if score > epsilon {
				return j
			}
		} else if score > best {
			best = score
			entering = j
		}
	}
	return entering
}

// exchange performs the basis change for entering column q leaving at
// position p with FTRAN column w: the entering variable's value moves by
// delta off its current bound, every other basic value follows, the eta is
// appended and the bookkeeping swapped.  leaveAtUpper places the leaving
// variable at its upper instead of its lower bound.
func (s *solver) exchange(q, p int, delta float64, w []float64, leaveAtUpper bool) {
	if delta != 0 {
		for i := range s.xB {
			if i == p || w[i] == 0 {
				continue
			}
			s.xB[i] = clampBound(s.xB[i]-delta*w[i], s.std.upper[s.basis[i]])
		}
	}
	enterVal := delta
	if s.atUpper[q] {
		enterVal += s.std.upper[q]
	}
	s.xB[p] = clampBound(enterVal, s.std.upper[q])
	s.eta.push(p, w)
	leave := s.basis[p]
	s.basic[leave] = false
	s.atUpper[leave] = leaveAtUpper && !math.IsInf(s.std.upper[leave], 1)
	s.basic[q] = true
	s.atUpper[q] = false
	s.basis[p] = q
	s.sinceRefactor++
	s.stats.Pivots++
}

// boundFlip moves nonbasic column q from one of its bounds to the other
// without any basis change: the basic solution shifts by ∓u_q·w, the
// status bit flips, and — because the basis matrix is untouched — there is
// no eta push, no LU aging and no reduced-cost maintenance at all.
func (s *solver) boundFlip(q int, w []float64) {
	delta := s.std.upper[q]
	if s.atUpper[q] {
		delta = -delta
	}
	for i := range s.xB {
		if w[i] == 0 {
			continue
		}
		s.xB[i] = clampBound(s.xB[i]-delta*w[i], s.std.upper[s.basis[i]])
	}
	s.atUpper[q] = !s.atUpper[q]
	s.stats.BoundFlips++
	s.stallRun = 0 // a bound flip strictly improves the objective
}

// alphaRow computes alpha = Aᵀρ over the priced columns into the solver's
// scratch via the row-major scatter, clearing it first.  The returned slice
// is only valid until the next call.
func (s *solver) alphaRow(rho []float64) []float64 {
	alpha := s.alpha
	for i := range alpha {
		alpha[i] = 0
	}
	s.std.scatterRows(rho, alpha)
	return alpha
}

// objective returns the active-cost objective over the basic values.  The
// phase-1 checks are its only caller: artificials are never at an upper
// bound and carry the only nonzero phase-1 costs, so the basic sum is the
// whole phase-1 objective.
func (s *solver) objective() float64 {
	obj := 0.0
	for i := 0; i < s.m; i++ {
		obj += s.cost[s.basis[i]] * s.xB[i]
	}
	return obj
}

// finiteVec reports whether every entry of x is finite (no NaN or ±Inf).
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// interrupted polls the solve budgets: injected deadline faults first, then
// the context, then the wall clock (sampled every 16th iteration — a
// time.Now per pivot would dominate small solves).  Returns 0 to continue.
func (s *solver) interrupted(iter int) Status {
	if faultsOn.Load() && faultFires(FaultExpireDeadline) {
		return statusDeadline
	}
	ctl := &s.ctl
	if ctl.ctx != nil {
		select {
		case <-ctl.ctx.Done():
			return statusCancelled
		default:
		}
	}
	if !ctl.deadline.IsZero() && iter&15 == 0 && !time.Now().Before(ctl.deadline) {
		return statusDeadline
	}
	return 0
}

// guardNaN recovers from a non-finite FTRAN/BTRAN result: the usual culprit
// is drift (or corruption) in the product-form eta file, which a fresh
// factorization discards.  A small retry budget keeps a basis that is
// genuinely broken from looping forever.  Returns 0 when the solve may
// continue on the rebuilt factors.
func (s *solver) guardNaN() Status {
	s.stats.NaNGuards++
	s.nanRetries++
	if s.nanRetries > maxNaNRetries {
		return statusNumeric
	}
	if _, err := s.refactorizeRepair(); err != nil {
		return statusNumeric
	}
	s.rebuildReduced()
	// Whatever poisoned the FTRAN/BTRAN results may have poisoned the
	// pricing weights learned through them; restart the framework.
	s.pr.reset(s)
	return 0
}

// refactorizeRepair is refactorize with the singular-basis repair rung: when
// the factorization reports a singular basis, the offending basic column is
// ejected in favor of an unused slack (or artificial) and the factorization
// retried, up to maxBasisRepairs times.  Reports whether any repair was
// applied; err is the last factorization error when all repairs failed.
func (s *solver) refactorizeRepair() (repaired bool, err error) {
	for attempt := 0; ; attempt++ {
		err = s.refactorize()
		if err == nil {
			if repaired {
				// The repair swapped basis columns under the pricing rule:
				// reference weights keyed to the old basis are meaningless,
				// so the framework restarts.  A clean periodic
				// refactorization keeps them — the weights approximate
				// ‖B⁻¹·A_j‖², a property of the basis itself, not of the
				// factorization that represents it.
				s.pr.reset(s)
			}
			return repaired, nil
		}
		if attempt >= maxBasisRepairs || !s.repairSingular() {
			return repaired, err
		}
		repaired = true
		s.stats.Repairs++
	}
}

// repairSingular ejects the basic column the failed factorization choked on
// (luFactor.failPos) and seats the slack — or, for an equality row, the
// artificial — of a row the factorization never pivoted, the unit column
// guaranteed to restore that row's coverage.  Returns false when no such
// replacement exists (then the basis is beyond local repair).
func (s *solver) repairSingular() bool {
	pos := s.lu.failPos
	if pos < 0 {
		return false
	}
	for r := 0; r < s.m; r++ {
		if s.lu.pinv[r] >= 0 {
			continue // row already covered by a pivot
		}
		j := s.std.slackOf[r]
		if j < 0 || s.basic[j] {
			j = s.std.artOf[r]
		}
		if j < 0 || s.basic[j] {
			continue
		}
		old := s.basis[pos]
		s.basic[old] = false
		s.atUpper[old] = false // ejected to its lower bound
		s.basic[j] = true
		s.atUpper[j] = false
		s.basis[pos] = j
		return true
	}
	return false
}

// primalFeasibleNow reports whether every basic value currently respects its
// bounds (within feasTol) — used to verify that a mid-primal basis repair
// did not silently break the feasibility invariant primal pivots rely on.
func (s *solver) primalFeasibleNow() bool {
	for i, v := range s.xB {
		if v < -feasTol || v > s.std.upper[s.basis[i]]+feasTol {
			return false
		}
	}
	return true
}

// primal runs primal simplex iterations from the current (primal-feasible)
// basis until optimality, unboundedness or the iteration limit.  Artificial
// columns are never priced: they can leave the basis but never re-enter.
// The caller supplies an exact reduced-cost row for s.cost (rebuildReduced,
// or a dual simplex that just ended on one).
func (s *solver) primal() Status {
	m, n := s.m, s.std.nCols
	maxIter := 30 * (m + n)
	if maxIter < 2000 {
		maxIter = 2000
	}
	if s.ctl.maxIters > 0 {
		maxIter = s.ctl.maxIters
	}
	blandAfter := 4 * (m + n)
	checkLimits := s.ctl.active() || faultsOn.Load()
	wasBland := s.blandForced

	for iter := 0; iter < maxIter; iter++ {
		if checkLimits {
			if st := s.interrupted(iter); st != 0 {
				return st
			}
			if faultsOn.Load() && faultFires(FaultForceStall) {
				s.stallRun = stallAfter
			}
		}
		if s.stallRun >= stallAfter && !s.blandForced {
			// Anti-cycling rung: a long run of degenerate pivots switches
			// pricing to Bland's rule until the objective moves again.
			// Refactorize first — Bland's exact ratio test can pivot on
			// phantom eta-file entries that the Harris test sidesteps, so it
			// must start from fresh factors.
			s.blandForced = true
			if _, err := s.refactorizeRepair(); err != nil {
				return statusNumeric
			}
			s.rebuildReduced()
		}
		useBland := s.blandForced || iter > blandAfter
		if useBland && !wasBland {
			wasBland = true
			s.stats.BlandSwitches++
		}
		if s.stale >= refreshEvery || (useBland && s.stale > 0) {
			s.rebuildReduced()
		}
		// Pricing: Bland's least-index rule while the stall latch holds (or
		// past the iteration backstop), the configured rule otherwise.
		var q int
		if useBland {
			q = s.pickEntering(true)
		} else {
			q = s.pr.price(s)
		}
		if q < 0 && s.stale > 0 {
			// The maintained row says optimal; confirm exactly so drift can
			// delay convergence but never fake it.
			s.rebuildReduced()
			if useBland {
				q = s.pickEntering(true)
			} else {
				q = s.pr.price(s)
			}
		}
		if q < 0 {
			// NaN reduced costs price every column as ineligible, which would
			// fake optimality here; a non-finite row means the eta file went
			// bad, so rebuild the factors and re-price instead.
			if !finiteVec(s.reduced) {
				if st := s.guardNaN(); st != 0 {
					return st
				}
				continue
			}
			return Optimal
		}

		w := s.ftranCol(q)
		if !finiteVec(w) {
			if st := s.guardNaN(); st != 0 {
				return st
			}
			continue
		}
		// Exact reduced cost of the nominee, free from the FTRAN column:
		// d_q = c_q − c_B·w.  A nominee the maintained row promoted but the
		// exact value rejects is neutralized and re-picked — drift can cost
		// an FTRAN, never a non-improving pivot.
		dq := s.cost[q]
		for i := 0; i < m; i++ {
			dq -= s.cost[s.basis[i]] * w[i]
		}
		sigma := 1.0 // direction of the entering variable's move
		if s.atUpper[q] {
			sigma = -1
		}
		if sigma*dq >= -epsilon {
			s.reduced[q] = dq
			continue
		}

		// Ratio test on the step t ≥ 0 of the entering variable along σ.
		// Basic value i moves by −σ·t·wᵢ, so σ·wᵢ > 0 drives it toward its
		// lower bound and σ·wᵢ < 0 toward its (finite) upper bound; the
		// entering variable's own opposite bound caps t at u_q — and when
		// that cap binds first the iteration is a pure bound flip with no
		// basis change at all.
		//
		// The default is a Harris-style two-pass: bound the step length
		// with the feasibility tolerance, then among the rows that stay
		// within the bound pick the LARGEST pivot element.  On badly scaled
		// problems (the exact MILP's big-M rows) the FTRAN column can carry
		// phantom entries — pure eta-file roundoff just above pivotEpsilon —
		// and pivoting on one makes the basis exactly singular; preferring
		// the largest eligible pivot never selects a phantom when a real
		// entry is available.  Under Bland's rule the classic exact test
		// with smallest-index ties is used instead, as its termination
		// guarantee requires (bound flips strictly improve the objective,
		// so they never participate in a cycle).
		uq := s.std.upper[q]
		leaving := -1
		leaveAtUpper := false
		var step float64
		if useBland {
			bestRatio := math.Inf(1)
			for i := 0; i < m; i++ {
				d := sigma * w[i]
				var ratio float64
				var atUp bool
				if d > pivotEpsilon {
					ratio = s.xB[i] / d
				} else if d < -pivotEpsilon {
					ub := s.std.upper[s.basis[i]]
					if math.IsInf(ub, 1) {
						continue
					}
					ratio = (ub - s.xB[i]) / -d
					atUp = true
				} else {
					continue
				}
				if ratio < bestRatio-epsilon ||
					(math.Abs(ratio-bestRatio) <= epsilon && (leaving == -1 || s.basis[i] < s.basis[leaving])) {
					bestRatio = ratio
					leaving = i
					leaveAtUpper = atUp
				}
			}
			if !math.IsInf(uq, 1) && uq <= bestRatio {
				s.boundFlip(q, w)
				continue
			}
			if leaving == -1 {
				return Unbounded
			}
			step = bestRatio
		} else {
			thetaMax := math.Inf(1)
			for i := 0; i < m; i++ {
				d := sigma * w[i]
				if d > pivotEpsilon {
					if r := (s.xB[i] + feasTol) / d; r < thetaMax {
						thetaMax = r
					}
				} else if d < -pivotEpsilon {
					ub := s.std.upper[s.basis[i]]
					if math.IsInf(ub, 1) {
						continue
					}
					if r := (ub - s.xB[i] + feasTol) / -d; r < thetaMax {
						thetaMax = r
					}
				}
			}
			if !math.IsInf(uq, 1) && uq <= thetaMax {
				s.boundFlip(q, w)
				continue
			}
			if math.IsInf(thetaMax, 1) {
				return Unbounded
			}
			bestW := 0.0
			for i := 0; i < m; i++ {
				d := sigma * w[i]
				var ratio float64
				var atUp bool
				if d > pivotEpsilon {
					ratio = s.xB[i] / d
				} else if d < -pivotEpsilon {
					ub := s.std.upper[s.basis[i]]
					if math.IsInf(ub, 1) {
						continue
					}
					ratio = (ub - s.xB[i]) / -d
					atUp = true
				} else {
					continue
				}
				if ratio > thetaMax {
					continue
				}
				aw := math.Abs(w[i])
				if aw > bestW || (aw == bestW && (leaving == -1 || s.basis[i] < s.basis[leaving])) {
					bestW = aw
					leaving = i
					leaveAtUpper = atUp
				}
			}
			if leaving == -1 {
				// Cannot happen with a finite thetaMax (the row that set it
				// is always eligible); treat defensively as numerical.
				return statusNumeric
			}
			d := sigma * w[leaving]
			if leaveAtUpper {
				step = (s.std.upper[s.basis[leaving]] - s.xB[leaving]) / -d
			} else {
				step = s.xB[leaving] / d
			}
		}

		s.exchange(q, leaving, sigma*step, w, leaveAtUpper)
		if step <= epsilon {
			s.stallRun++ // degenerate pivot: no objective progress
		} else {
			// Progress made: release the stall latch back to the pricing
			// rule.  Bland is an anti-cycling device, not a pricing
			// strategy — staying on it past the stall trades convergence
			// speed for nothing.  Devex restarts with a fresh reference
			// framework, counted as a DevexReset unconditionally: the reset
			// is the release signal.
			s.stallRun = 0
			if s.blandForced && !s.blandOnly {
				s.blandForced = false
				if s.dvx != nil {
					s.dvx.resetFramework(s, true)
				}
			}
		}
		if s.sinceRefactor >= refactorEvery {
			repaired, err := s.refactorizeRepair()
			if err != nil {
				return statusNumeric
			}
			if repaired && !s.primalFeasibleNow() {
				// The repair changed the basis under us and the recomputed
				// solution left the feasible box; primal pivots would be
				// meaningless from here.
				return statusNumeric
			}
			s.rebuildReduced()
		} else {
			s.pr.update(s, q, leaving, dq, w)
		}
	}
	return statusNumeric
}

// dual runs dual simplex iterations from the current (dual-feasible) basis
// until primal feasibility or a proof of infeasibility.  It is the
// warm-start workhorse: after bound/rhs mutations the previous optimal
// basis stays dual-feasible and a few dual pivots restore primal
// feasibility.  A basic value can now violate either bound: one below its
// lower bound leaves at the lower bound, one above its (finite) upper
// bound leaves at the upper bound, and the entering ratio test is signed
// by each candidate's own bound status so the nonbasic reduced costs stay
// dual-feasible (≥ 0 at lower, ≤ 0 at upper).  Dual iterations rebuild the
// reduced-cost row exactly each time — warm restarts take a handful of
// pivots, so exactness beats maintenance here.  The caller supplies the
// first exact row (solveWarm checks dual feasibility on it); every path
// back to the top of the loop leaves one, so an Optimal return hands primal
// an exact row too.
func (s *solver) dual() Status {
	m, n := s.m, s.std.nCols
	maxIter := 30 * (m + n)
	if maxIter < 2000 {
		maxIter = 2000
	}
	if s.ctl.maxIters > 0 {
		maxIter = s.ctl.maxIters
	}
	checkLimits := s.ctl.active() || faultsOn.Load()
	rho := s.rho

	for iter := 0; iter < maxIter; iter++ {
		if checkLimits {
			if st := s.interrupted(iter); st != 0 {
				return st
			}
		}
		// Leaving: largest bound violation among the basic values — under
		// devex weighted by the dual reference weights (violation squared
		// over the approximate row norm of B⁻¹), the dual analogue of the
		// primal devex score: a violation that is large only because its row
		// of the inverse is long yields a short dual step, so normalizing by
		// the row norm picks rows that actually move the dual objective.
		p := -1
		leaveAtUpper := false
		if s.dvx != nil {
			bestV2, bestW := 0.0, 1.0
			for i, v := range s.xB {
				viol := -v
				atUp := false
				if ub := s.std.upper[s.basis[i]]; !math.IsInf(ub, 1) && v-ub > viol {
					viol = v - ub
					atUp = true
				}
				if viol <= feasTol {
					continue
				}
				// Divide-free argmax of viol²/rowW, cross-multiplied
				// against the incumbent.
				if v2 := viol * viol; v2*bestW > bestV2*s.dvx.rowW[i] {
					bestV2, bestW = v2, s.dvx.rowW[i]
					p = i
					leaveAtUpper = atUp
				}
			}
		} else {
			worst := feasTol
			for i, v := range s.xB {
				if -v > worst {
					worst = -v
					p = i
					leaveAtUpper = false
				}
				if ub := s.std.upper[s.basis[i]]; !math.IsInf(ub, 1) && v-ub > worst {
					worst = v - ub
					p = i
					leaveAtUpper = true
				}
			}
		}
		if p < 0 {
			return Optimal
		}
		// r is the dual direction sign: +1 when the leaving value must
		// rise back to its lower bound, −1 when it must fall to its upper.
		r := 1.0
		target := 0.0
		if leaveAtUpper {
			r = -1
			target = s.std.upper[s.basis[p]]
		}

		s.btranUnit(p, rho)
		if !finiteVec(rho) {
			if st := s.guardNaN(); st != 0 {
				return st
			}
			continue
		}
		if s.dvx != nil && s.dvx.dirty && s.dvx.dualDrifted(p, rho) {
			// ρ is the exact row norm the reference weight approximates;
			// past the ratio bound the framework restarts at unit weights.
			s.dvx.resetFramework(s, true)
		}

		// Entering: dual ratio test over the eligible columns of row p.  A
		// column at its lower bound can only increase (needs r·α < 0 to move
		// xB_p toward its target) and must keep d ≥ 0; one at its upper
		// bound can only decrease (needs r·α > 0) and must keep d ≤ 0.
		q := -1
		best := math.Inf(1)
		alpha := s.alphaRow(rho)
		for j := 0; j < s.std.nTotal; j++ {
			if s.basic[j] || s.std.upper[j] == 0 {
				continue
			}
			ra := r * alpha[j]
			var ratio float64
			if s.atUpper[j] {
				if ra <= pivotEpsilon {
					continue
				}
				d := s.reduced[j]
				if d > 0 {
					d = 0
				}
				ratio = -d / ra
			} else {
				if ra >= -pivotEpsilon {
					continue
				}
				d := s.reduced[j]
				if d < 0 {
					d = 0
				}
				ratio = d / -ra
			}
			if ratio < best-epsilon || (math.Abs(ratio-best) <= epsilon && (q == -1 || j < q)) {
				best = ratio
				q = j
			}
		}
		if q < 0 {
			// Row p proves infeasibility — no movable nonbasic column can
			// push its value back inside the bounds.  But only trust fresh
			// factors: with etas stacked up, refactorize and re-verify first.
			if s.eta.count() > 0 {
				if repaired, err := s.refactorizeRepair(); err != nil || repaired {
					// A repair swaps a column mid-flight, which can break the
					// dual feasibility this loop relies on; let the caller
					// fall back to a cold solve.
					return statusNumeric
				}
				s.rebuildReduced()
				continue
			}
			return Infeasible
		}

		w := s.ftranCol(q)
		if !finiteVec(w) {
			if st := s.guardNaN(); st != 0 {
				return st
			}
			continue
		}
		delta := 0.0
		ok := math.Abs(w[p]) > pivotEpsilon
		if ok {
			delta = (s.xB[p] - target) / w[p]
			// The entering variable must move off its own bound in its only
			// feasible direction; the FTRAN column disagreeing with the
			// BTRAN row means numerical drift.
			if s.atUpper[q] {
				ok = delta <= epsilon
			} else {
				ok = delta >= -epsilon
			}
		}
		if !ok {
			if s.sinceRefactor == 0 {
				return statusNumeric
			}
			if repaired, err := s.refactorizeRepair(); err != nil || repaired {
				return statusNumeric
			}
			s.rebuildReduced()
			continue
		}

		s.exchange(q, p, delta, w, leaveAtUpper)
		if s.dvx != nil {
			s.dvx.dualUpdate(s, p, w)
		}
		if s.sinceRefactor >= refactorEvery {
			if repaired, err := s.refactorizeRepair(); err != nil || repaired {
				return statusNumeric
			}
		}
		s.rebuildReduced()
	}
	return statusNumeric
}

// driveOutArtificials pivots basic artificial columns out of the basis after
// phase 1 where possible; rows where no structural or slack column has a
// nonzero entry are redundant and keep their artificial basic at zero.
func (s *solver) driveOutArtificials() error {
	rho := s.rho
	for p := 0; p < s.m; p++ {
		if s.basis[p] < s.std.nTotal {
			continue
		}
		s.btranUnit(p, rho)
		found := -1
		for j := 0; j < s.std.nTotal; j++ {
			if s.basic[j] {
				continue
			}
			if alpha := s.std.colDot(j, rho); math.Abs(alpha) > pivotEpsilon {
				found = j
				break
			}
		}
		if found < 0 {
			continue
		}
		w := s.ftranCol(found)
		wMax := 0.0
		for _, v := range w {
			if a := math.Abs(v); a > wMax {
				wMax = a
			}
		}
		// Both an absolute and a relative guard: a pivot that is tiny
		// relative to the column is likely eta-file roundoff, and pivoting
		// on it can make the basis numerically singular.
		if math.Abs(w[p]) <= pivotEpsilon || math.Abs(w[p]) <= 1e-9*wMax {
			continue
		}
		// The artificial sits at ~0, so the entering column barely moves
		// off its bound: a degenerate exchange with the artificial leaving
		// at its lower bound.
		s.exchange(found, p, s.xB[p]/w[p], w, false)
		if s.sinceRefactor >= refactorEvery {
			if err := s.refactorize(); err != nil {
				return err
			}
		}
	}
	return nil
}

// values scatters the current solution into a standard-form column vector:
// basic values clamped to their bounds plus every nonbasic-at-upper column
// at its upper bound.
func (s *solver) values() []float64 {
	scr := s.std.scr
	scr.values = cleared(scr.values, s.std.nCols)
	out := scr.values
	for j := 0; j < s.std.nTotal; j++ {
		if s.atUpper[j] && !s.basic[j] {
			out[j] = s.std.upper[j]
		}
	}
	for i, b := range s.basis {
		v := s.xB[i]
		if v < 0 {
			v = 0
		} else if u := s.std.upper[b]; v > u {
			v = u
		}
		out[b] = v
	}
	return out
}

// artificialsClean reports whether every basic artificial sits at ~zero, the
// condition for the basic solution to be feasible for the original problem.
func (s *solver) artificialsClean() bool {
	for i, b := range s.basis {
		if b >= s.std.nTotal && s.xB[i] > artValueTol {
			return false
		}
	}
	return true
}

// solve runs the revised simplex on this standard form, optionally
// warm-started and under the given budgets, returning the status, the
// standard-form values and (when Optimal) the captured basis.  A failed warm
// attempt falls back to one cold solve unless the failure was a deadline or
// cancellation — a budget stop is final, there is nothing left to retry on.
func (s *standard) solve(warm *Basis, ctl *solveControl, stats *Stats) (Status, []float64, *Basis) {
	if s.m == 0 {
		// No rows: every column sits at whichever of its bounds its cost
		// prefers; a negative cost with no finite upper bound is an
		// unbounded ray.
		s.scr.values = cleared(s.scr.values, s.nCols)
		vals := s.scr.values
		for j := 0; j < s.nTotal; j++ {
			if s.c[j] < -epsilon {
				if math.IsInf(s.upper[j], 1) {
					return Unbounded, nil, nil
				}
				vals[j] = s.upper[j]
			}
		}
		return Optimal, vals, s.emptyBasis(vals)
	}

	if warm != nil {
		if basisArr, atUp, dvxCols, dvxW, ok := s.installBasis(warm); ok {
			sv := newSolver(s, ctl, stats)
			if st, vals := sv.solveWarm(basisArr, atUp, dvxCols, dvxW); st != statusRetry {
				if st == Optimal {
					cols, wts := sv.devexWeights()
					return st, vals, s.captureBasis(sv.basis, sv.atUpper, cols, wts)
				}
				return st, vals, nil
			}
		}
		stats.ColdFallbacks++
	}

	sv := newSolver(s, ctl, stats)
	st, vals := sv.solveCold()
	if st == Optimal {
		cols, wts := sv.devexWeights()
		return st, vals, s.captureBasis(sv.basis, sv.atUpper, cols, wts)
	}
	return st, vals, nil
}

// devexWeights exposes the learned reference weights for basis capture in
// sparse form (column indices and their >1 values), or nils under a
// non-devex rule.  A solve that never materialized the dense vector passes
// its carried warm-start entries through without an O(columns) scan.
func (sv *solver) devexWeights() ([]int, []float64) {
	if sv.dvx == nil {
		return nil, nil
	}
	if sv.dvx.w == nil {
		return sv.dvx.carriedIdx, sv.dvx.carriedW
	}
	n := 0
	for _, wv := range sv.dvx.w {
		if wv > 1 {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	// Capture staging is scratch-backed: captureBasis copies the pairs into
	// the Basis, so nothing here outlives the capture.
	scr := sv.std.scr
	scr.capturedIdx = grow(scr.capturedIdx, n)
	scr.capturedW = grow(scr.capturedW, n)
	cols, wts := scr.capturedIdx[:0], scr.capturedW[:0]
	for j, wv := range sv.dvx.w {
		if wv > 1 {
			cols = append(cols, j)
			wts = append(wts, wv)
		}
	}
	return cols, wts
}

// solveWarm restarts from a mapped basis and its nonbasic-at-bound
// statuses: factorize it, then go straight to primal phase 2 if the basic
// solution is still within bounds, or re-optimize with the dual simplex if
// it is at least dual-feasible.  statusRetry means the warm basis was
// unusable and the caller should solve cold.
func (sv *solver) solveWarm(basisArr []int, atUpper []bool, dvxCols []int, dvxW []float64) (Status, []float64) {
	sv.setBasis(basisArr)
	copy(sv.atUpper, atUpper)
	sv.cost = sv.std.c
	// A singular warm basis is repaired in place (ejecting the column the
	// factorization choked on for an unused slack) rather than thrown away:
	// the repaired basis is usually a few dual pivots from optimal, while a
	// cold solve starts from scratch.
	if _, err := sv.refactorizeRepair(); err != nil {
		return statusRetry, nil
	}
	// Install the carried devex reference weights after the initial
	// factorization (a repair there would have reset the fresh framework
	// anyway).  They stay sparse until a pivot materializes the dense
	// vector, but count as learned state from here.
	if sv.dvx != nil && len(dvxCols) > 0 {
		sv.dvx.carriedIdx, sv.dvx.carriedW = dvxCols, dvxW
		sv.dvx.dirty = true
	}

	primalFeasible := true
	for i, v := range sv.xB {
		if v < 0 || v > sv.std.upper[sv.basis[i]] {
			primalFeasible = false
			break
		}
	}
	// One exact reduced-cost row serves both branches: the dual-feasibility
	// check and dual() below start from it, and primal() continues from it
	// directly or from the exact row dual() ends on.
	sv.rebuildReduced()
	if !primalFeasible {
		for j := 0; j < sv.std.nTotal; j++ {
			if sv.basic[j] || sv.std.upper[j] == 0 {
				continue
			}
			d := sv.reduced[j]
			if (sv.atUpper[j] && d > dualTol) || (!sv.atUpper[j] && d < -dualTol) {
				return statusRetry, nil // neither primal- nor dual-feasible
			}
		}
		switch st := sv.dual(); st {
		case Optimal:
			// primal-feasible now; fall through to the phase-2 cleanup.
			sv.clampXB()
		case Infeasible:
			return Infeasible, nil
		case statusDeadline, statusCancelled:
			return st, nil // budget stops are final, never retried cold
		default:
			return statusRetry, nil
		}
	}

	// Phase-2 cleanup: verifies optimality (usually zero iterations after
	// the dual simplex) and fixes any residual dual infeasibility.
	switch st := sv.primal(); st {
	case Optimal:
		if !sv.artificialsClean() {
			// A basic artificial drifted off zero: the "solution" is not
			// feasible for the original problem.  Let the cold path's
			// phase 1 settle it.
			return statusRetry, nil
		}
		return Optimal, sv.values()
	case Unbounded:
		if !sv.artificialsClean() {
			// The ray was found from a point where a basic artificial sits
			// at a positive value — a recession direction of the
			// artificial-relaxed problem, not necessarily of the original.
			// Only the cold path's phase 1 can tell unbounded from
			// infeasible here.
			return statusRetry, nil
		}
		return Unbounded, nil
	case statusDeadline, statusCancelled:
		return st, nil // budget stops are final, never retried cold
	default:
		return statusRetry, nil
	}
}

// solveCold runs the classic two-phase method from the all-slack/artificial
// starting basis, every structural column nonbasic at its lower bound.
func (sv *solver) solveCold() (Status, []float64) {
	st := sv.std
	st.scr.basis = grow(st.scr.basis, st.m)
	basisArr := st.scr.basis
	hasArt := false
	for i := 0; i < st.m; i++ {
		// LE rows start on their slack; GE rows' surplus has the wrong sign
		// for b ≥ 0, so GE and EQ rows start on their artificial.
		if st.slackOf[i] >= 0 && st.artOf[i] < 0 {
			basisArr[i] = st.slackOf[i]
		} else {
			basisArr[i] = st.artOf[i]
			hasArt = true
		}
	}
	sv.setBasis(basisArr)
	if err := sv.refactorize(); err != nil {
		return statusNumeric, nil
	}

	if hasArt {
		// Phase 1: minimize the sum of artificial values.  The starting
		// basis is primal-feasible for this objective by construction
		// (xB = b ≥ 0 with every nonbasic structural at lower, so no upper
		// bound is active), and artificials never re-enter once driven out.
		st.scr.phase1 = cleared(st.scr.phase1, st.nCols)
		phase1 := st.scr.phase1
		for j := st.nTotal; j < st.nCols; j++ {
			phase1[j] = 1
		}
		sv.cost = phase1
		sv.rebuildReduced()
		switch s := sv.primal(); s {
		case Optimal:
		case statusNumeric:
			// Factorization failure or iteration limit: report honestly as
			// a numerical failure, never as a (possibly wrong) infeasible.
			return statusNumeric, nil
		case statusDeadline, statusCancelled:
			return s, nil
		default:
			// Phase 1 is bounded below by zero; Unbounded here means the
			// pricing went numerically sideways.
			return Infeasible, nil
		}
		if sv.objective() > artValueTol {
			return Infeasible, nil
		}
		if err := sv.driveOutArtificials(); err != nil {
			return statusNumeric, nil
		}
	}

	sv.cost = st.c
	sv.rebuildReduced()
	switch s := sv.primal(); s {
	case Optimal:
		return Optimal, sv.values()
	case Unbounded:
		return Unbounded, nil
	case statusDeadline, statusCancelled:
		return s, nil
	default:
		// Factorization failure or iteration limit: report honestly as a
		// numerical failure.  Mapping it to Infeasible would let callers
		// that prune on infeasibility (the branch-and-bound loop) silently
		// discard a feasible subtree.
		return statusNumeric, nil
	}
}
