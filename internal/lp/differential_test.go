package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomProblem draws an LP with the shape mix of the provisioning and
// partitioning models: mixed senses, free and bounded variables, LE/GE/EQ
// rows, empty rows, negative right-hand sides.  Roughly a third of the
// draws come out infeasible or unbounded, which is the point — the
// differential test must pin Status, not just objectives.
func randomProblem(rng *rand.Rand) *Problem { return randomProblemShaped(rng, false) }

// randomProblemShaped additionally draws bound-heavy instances — the shape
// of the milp relaxations, where almost every variable carries a finite
// upper bound (and a few are fixed by lo == hi branch pins) while the
// constraint count stays small.  These exercise the implicit-bound paths
// hardest: nonbasic-at-upper statuses, bound flips, and fixed columns,
// against the dense reference that still expands every finite bound into
// an explicit row.
func randomProblemShaped(rng *rand.Rand, boundHeavy bool) *Problem {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	nVars := 1 + rng.Intn(10)
	nCons := rng.Intn(13)
	if boundHeavy {
		nVars = 3 + rng.Intn(12)
		nCons = rng.Intn(5)
	}
	vars := make([]Var, nVars)
	for j := 0; j < nVars; j++ {
		var lb float64
		switch rng.Intn(5) {
		case 0:
			lb = math.Inf(-1)
		case 1:
			lb = -rng.Float64() * 5
		case 2:
			lb = rng.Float64() * 3
		default:
			lb = 0
		}
		ub := Infinity
		finiteUB := rng.Intn(3) != 0
		if boundHeavy {
			finiteUB = rng.Intn(10) != 0
		}
		if finiteUB {
			base := lb
			if math.IsInf(base, -1) {
				base = -rng.Float64() * 5
			}
			ub = base + rng.Float64()*8
			if !math.IsInf(lb, -1) && rng.Intn(12) == 0 {
				ub = lb // fixed variable (lo == hi)
			}
		}
		vars[j] = p.MustVariable("x", lb, ub, rng.Float64()*4-2)
	}
	for i := 0; i < nCons; i++ {
		terms := make([]Term, 0, nVars)
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			terms = append(terms, Term{Var: vars[j], Coeff: rng.Float64()*4 - 2})
		}
		op := Op(1 + rng.Intn(3))
		rhs := rng.Float64()*10 - 3
		if len(terms) == 0 && op == EQ {
			// An empty equality is almost always infeasible; keep a few but
			// mostly give empty rows an inequality so the mix stays useful.
			op = Op(1 + rng.Intn(3))
		}
		if err := p.AddConstraint("c", op, rhs, terms...); err != nil {
			panic(err)
		}
	}
	return p
}

// checkModelFeasible verifies a claimed-optimal solution against the model
// itself: every variable within bounds, every constraint satisfied.
func checkModelFeasible(t *testing.T, trial int, p *Problem, sol *Solution) {
	t.Helper()
	const tol = 1e-6
	for j, v := range p.vars {
		x := sol.Value(Var(j))
		if x < v.lb-tol || x > v.ub+tol {
			t.Fatalf("trial %d: x[%d]=%v violates bounds [%v, %v]", trial, j, x, v.lb, v.ub)
		}
	}
	for i, c := range p.cons {
		dot := 0.0
		for _, tm := range c.terms {
			dot += tm.Coeff * sol.Value(tm.Var)
		}
		switch c.op {
		case LE:
			if dot > c.rhs+tol {
				t.Fatalf("trial %d: constraint %d: %v > %v", trial, i, dot, c.rhs)
			}
		case GE:
			if dot < c.rhs-tol {
				t.Fatalf("trial %d: constraint %d: %v < %v", trial, i, dot, c.rhs)
			}
		case EQ:
			if math.Abs(dot-c.rhs) > tol {
				t.Fatalf("trial %d: constraint %d: %v != %v", trial, i, dot, c.rhs)
			}
		}
	}
}

// TestRevisedMatchesDenseCore is the refactor's pin: the revised simplex
// against the frozen pre-refactor dense-tableau core over 600 randomized
// LPs — half of them bound-heavy, so the implicit-bound machinery is
// differentially tested against the reference's explicit bound rows.
// Statuses must be identical on every problem; optimal objectives must
// agree to 1e-9 (relative), and the revised solution must satisfy the
// model directly.
func TestRevisedMatchesDenseCore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	statuses := map[Status]int{}
	for trial := 0; trial < 600; trial++ {
		p := randomProblemShaped(rng, trial%2 == 1)

		revised, errR := p.Solve()
		dense, errD := denseSolve(p)

		if (errR == nil) != (errD == nil) {
			t.Fatalf("trial %d: revised err %v, dense err %v", trial, errR, errD)
		}
		var stR, stD Status
		if revised != nil {
			stR = revised.Status
		}
		if dense != nil {
			stD = dense.Status
		}
		if stR != stD {
			t.Fatalf("trial %d: revised status %v, dense status %v", trial, stR, stD)
		}
		statuses[stR]++
		if stR != Optimal {
			continue
		}
		tol := 1e-9 * math.Max(1, math.Abs(dense.Objective))
		if math.Abs(revised.Objective-dense.Objective) > tol {
			t.Fatalf("trial %d: revised objective %v, dense %v (tol %v)",
				trial, revised.Objective, dense.Objective, tol)
		}
		checkModelFeasible(t, trial, p, revised)
		if revised.Basis() == nil {
			t.Fatalf("trial %d: optimal solve returned no basis", trial)
		}
	}
	// The generator must actually exercise all three outcomes.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Fatalf("generator produced no %v problems (distribution %v)", st, statuses)
		}
	}
}

// mutateProblem applies the warm-start mutation mix: rhs perturbations
// (scheduler rounds) and bound tightenings (branch and bound).
func mutateProblem(rng *rand.Rand, p *Problem) {
	for i := 0; i < p.NumConstraints(); i++ {
		if rng.Intn(2) == 0 {
			if err := p.SetRHS(i, p.cons[i].rhs+rng.Float64()*2-1); err != nil {
				panic(err)
			}
		}
	}
	for j := 0; j < p.NumVariables(); j++ {
		if rng.Intn(4) != 0 {
			continue
		}
		lb, ub := p.vars[j].lb, p.vars[j].ub
		if rng.Intn(2) == 0 {
			// Tighten the upper bound (a "branch down").
			base := lb
			if math.IsInf(base, -1) {
				base = -2
			}
			nub := base + rng.Float64()*4
			if nub < ub {
				ub = nub
			}
		} else if !math.IsInf(lb, -1) {
			lb += rng.Float64()
			if ub < lb {
				ub = lb
			}
		}
		if !math.IsInf(lb, -1) && !math.IsInf(ub, 1) && rng.Intn(8) == 0 {
			ub = lb // pin to a point (branch-and-bound integer fix)
		}
		if err := p.SetBounds(Var(j), lb, ub); err != nil {
			panic(err)
		}
	}
}

// TestSolveFromMatchesColdSolve pins the warm-start contract over
// randomized re-solve sequences: solving a mutated problem from the
// previous optimal basis must agree with a cold solve — same Status, same
// objective to 1e-9 — every time, across a chain of mutations.
func TestSolveFromMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	warmUsed := 0
	for trial := 0; trial < 200; trial++ {
		p := randomProblemShaped(rng, trial%3 == 0)
		sol, err := p.Solve()
		if err != nil {
			continue // warm starts only matter after a successful solve
		}
		basis := sol.Basis()
		for step := 0; step < 3; step++ {
			mutateProblem(rng, p)
			warm, errW := p.SolveFrom(basis)
			cold, errC := p.Solve()
			if (errW == nil) != (errC == nil) {
				t.Fatalf("trial %d step %d: warm err %v, cold err %v", trial, step, errW, errC)
			}
			var stW, stC Status
			if warm != nil {
				stW = warm.Status
			}
			if cold != nil {
				stC = cold.Status
			}
			if stW != stC {
				t.Fatalf("trial %d step %d: warm status %v, cold status %v", trial, step, stW, stC)
			}
			if stW != Optimal {
				break
			}
			tol := 1e-9 * math.Max(1, math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("trial %d step %d: warm objective %v, cold %v (tol %v)",
					trial, step, warm.Objective, cold.Objective, tol)
			}
			checkModelFeasible(t, trial, p, warm)
			basis = warm.Basis()
			warmUsed++
		}
	}
	if warmUsed < 100 {
		t.Fatalf("only %d warm re-solves exercised; generator mix is off", warmUsed)
	}
}

// TestSolveFromAfterRHSChange is the scheduler round in miniature: one
// Problem kept alive, right-hand sides rewritten, re-solved from the
// previous basis.
func TestSolveFromAfterRHSChange(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.MustVariable("x", 0, Infinity, 2)
	y := p.MustVariable("y", 0, Infinity, 3)
	if err := p.AddConstraint("demand", GE, 10, Term{x, 1}, Term{y, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("mix", LE, 7, Term{x, 1}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if math.Abs(sol.Objective-23) > 1e-9 {
		t.Fatalf("cold objective = %v, want 23", sol.Objective)
	}
	// New round: demand rises, the x cap falls.
	if err := p.SetRHS(0, 14); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRHS(1, 5); err != nil {
		t.Fatal(err)
	}
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	// x=5, y=9 → 2·5 + 3·9 = 37.
	if math.Abs(warm.Objective-37) > 1e-9 {
		t.Errorf("warm objective = %v, want 37", warm.Objective)
	}
	if math.Abs(warm.Value(x)-5) > 1e-7 || math.Abs(warm.Value(y)-9) > 1e-7 {
		t.Errorf("warm solution = (%v, %v), want (5, 9)", warm.Value(x), warm.Value(y))
	}
}

// TestSolveFromAfterBoundTightening is the branch-and-bound child node in
// miniature: tightening a bound keeps the parent basis dual-feasible, and
// the warm solve must land on the child optimum.
func TestSolveFromAfterBoundTightening(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.MustVariable("x", 0, Infinity, 1)
	if err := p.AddConstraint("c", LE, 7, Term{x, 2}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value(x)-3.5) > 1e-9 {
		t.Fatalf("relaxation x = %v, want 3.5", sol.Value(x))
	}
	// Branch down: x ≤ 3 (a pure bound edit — the standard form gains no
	// row, the parent basis stays dual-feasible).
	if err := p.SetBounds(x, 0, 3); err != nil {
		t.Fatal(err)
	}
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("warm child solve: %v", err)
	}
	if math.Abs(warm.Value(x)-3) > 1e-9 {
		t.Errorf("child x = %v, want 3", warm.Value(x))
	}
	// Branch up from the original: x ≥ 4 is infeasible under 2x ≤ 7.
	if err := p.SetBounds(x, 4, Infinity); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SolveFrom(sol.Basis()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("up branch: want ErrInfeasible, got %v", err)
	}
}

// TestSolveFromStaleBasisFallsBack pins the fallback contract: a basis from
// an unrelated problem must be ignored, not crash or corrupt the solve.
func TestSolveFromStaleBasisFallsBack(t *testing.T) {
	other := NewProblem(Minimize)
	a := other.MustVariable("a", 0, 5, 1)
	b := other.MustVariable("b", 0, 5, 1)
	if err := other.AddConstraint("c", GE, 4, Term{a, 1}, Term{b, 1}); err != nil {
		t.Fatal(err)
	}
	osol, err := other.Solve()
	if err != nil {
		t.Fatal(err)
	}

	p := NewProblem(Maximize)
	x := p.MustVariable("x", 0, Infinity, 3)
	y := p.MustVariable("y", 0, Infinity, 5)
	for _, c := range []struct {
		rhs float64
		tx  float64
		ty  float64
	}{{4, 1, 0}, {12, 0, 2}, {18, 3, 2}} {
		if err := p.AddConstraint("c", LE, c.rhs, Term{x, c.tx}, Term{y, c.ty}); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.SolveFrom(osol.Basis())
	if err != nil {
		t.Fatalf("SolveFrom with foreign basis: %v", err)
	}
	if math.Abs(sol.Objective-36) > 1e-9 {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
}

// randomProblemDegenerate draws a degeneracy-heavy instance: small-integer
// coefficients and costs (many exact ties in pricing), duplicated and
// scaled-duplicate rows (redundant constraints that put several basic
// values at zero), and frequent zero right-hand sides.  This is the family
// where pricing rules genuinely diverge — Dantzig stalls on ties that
// devex's reference weights break, and Bland grinds through them by index —
// so it is the family the cross-rule differential must lean on.
func randomProblemDegenerate(rng *rand.Rand) *Problem {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	nVars := 3 + rng.Intn(10)
	vars := make([]Var, nVars)
	for j := 0; j < nVars; j++ {
		ub := Infinity
		if rng.Intn(3) != 0 {
			ub = float64(1 + rng.Intn(4))
		}
		// Integer costs from a tiny set: exact pricing ties by design.
		vars[j] = p.MustVariable("x", 0, ub, float64(rng.Intn(4)-1))
	}
	nCons := 2 + rng.Intn(8)
	type row struct {
		terms []Term
		op    Op
		rhs   float64
	}
	var rows []row
	for i := 0; i < nCons; i++ {
		if len(rows) > 0 && rng.Intn(3) == 0 {
			// Duplicate (sometimes scaled) an earlier row: redundant
			// constraints leave ties in the ratio test, the classic source
			// of degenerate vertices.
			src := rows[rng.Intn(len(rows))]
			scale := float64(1 + rng.Intn(2))
			terms := make([]Term, len(src.terms))
			for k, tm := range src.terms {
				terms[k] = Term{tm.Var, tm.Coeff * scale}
			}
			rows = append(rows, row{terms, src.op, src.rhs * scale})
			continue
		}
		terms := make([]Term, 0, nVars)
		for j := 0; j < nVars; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			terms = append(terms, Term{vars[j], float64(rng.Intn(3))})
		}
		rhs := float64(rng.Intn(6))
		if rng.Intn(3) == 0 {
			rhs = 0 // zero rhs: a vertex with basic values pinned at zero
		}
		rows = append(rows, row{terms, Op(1 + rng.Intn(3)), rhs})
	}
	for _, r := range rows {
		if err := p.AddConstraint("c", r.op, r.rhs, r.terms...); err != nil {
			panic(err)
		}
	}
	return p
}

// drawDifferentialProblem rotates through the three generator families so
// the cross-rule suite covers the provisioning/partitioning mix, the
// bound-heavy milp-relaxation shape, and the degenerate family.
func drawDifferentialProblem(rng *rand.Rand, trial int) *Problem {
	switch trial % 3 {
	case 0:
		return randomProblemShaped(rng, false)
	case 1:
		return randomProblemShaped(rng, true)
	default:
		return randomProblemDegenerate(rng)
	}
}

// TestPricingRulesAgreeOnRandomLPs is the pricing tentpole's differential
// pin: 600 randomized LPs — a third of them degenerate-heavy — solved under
// devex, Dantzig and Bland must agree on Status everywhere and on the
// optimal objective to 1e-9 (relative); each rule's claimed-optimal point
// must satisfy the model directly (degenerate instances have alternative
// optima, so values may differ — objectives may not).
func TestPricingRulesAgreeOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	rules := []struct {
		name string
		rule PricingRule
	}{{"devex", PricingDevex}, {"dantzig", PricingDantzig}, {"bland", PricingBland}}
	statuses := map[Status]int{}
	pivots := make([]int, len(rules))
	degPivots := make([]int, len(rules))
	for trial := 0; trial < 600; trial++ {
		p := drawDifferentialProblem(rng, trial)
		sols := make([]*Solution, len(rules))
		for k, r := range rules {
			sol, err := p.SolveWithOptions(SolveOptions{Pricing: r.rule})
			if err != nil && !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrUnbounded) {
				t.Fatalf("trial %d: %s: %v", trial, r.name, err)
			}
			if sol == nil {
				t.Fatalf("trial %d: %s: nil solution", trial, r.name)
			}
			sols[k] = sol
			pivots[k] += sol.Stats.Pivots
			if trial%3 == 2 {
				degPivots[k] += sol.Stats.Pivots
			}
		}
		ref := sols[0]
		statuses[ref.Status]++
		for k, r := range rules[1:] {
			if sols[k+1].Status != ref.Status {
				t.Fatalf("trial %d: %s status %v, devex status %v",
					trial, r.name, sols[k+1].Status, ref.Status)
			}
		}
		if ref.Status != Optimal {
			continue
		}
		for k, r := range rules {
			tol := 1e-9 * math.Max(1, math.Abs(ref.Objective))
			if math.Abs(sols[k].Objective-ref.Objective) > tol {
				t.Fatalf("trial %d: %s objective %v, devex %v (tol %v)",
					trial, r.name, sols[k].Objective, ref.Objective, tol)
			}
			checkModelFeasible(t, trial, p, sols[k])
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Fatalf("generator produced no %v problems (distribution %v)", st, statuses)
		}
	}
	t.Logf("pivots devex=%d dantzig=%d bland=%d (degenerate family: devex=%d dantzig=%d bland=%d)",
		pivots[0], pivots[1], pivots[2], degPivots[0], degPivots[1], degPivots[2])
}

// TestDevexSolveTwiceBitIdentical pins determinism: the devex framework
// (weight updates, candidate rotation, fused pricing) must not introduce
// any run-to-run variation — two cold solves of the same problem must take
// the same pivot path and produce bit-identical objectives and values.
func TestDevexSolveTwiceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16180))
	for trial := 0; trial < 120; trial++ {
		p := drawDifferentialProblem(rng, trial)
		a, errA := p.Solve()
		b, errB := p.Solve()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: first err %v, second err %v", trial, errA, errB)
		}
		if a.Status != b.Status {
			t.Fatalf("trial %d: status %v then %v", trial, a.Status, b.Status)
		}
		if a.Stats != b.Stats {
			t.Fatalf("trial %d: stats %+v then %+v", trial, a.Stats, b.Stats)
		}
		if a.Status != Optimal {
			continue
		}
		if a.Objective != b.Objective {
			t.Fatalf("trial %d: objective %v then %v (must be bit-identical)",
				trial, a.Objective, b.Objective)
		}
		va, vb := a.Values(), b.Values()
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("trial %d: value[%d] %v then %v", trial, j, va[j], vb[j])
			}
		}
	}
}
