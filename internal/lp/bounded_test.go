package lp

import (
	"errors"
	"math"
	"testing"
)

// TestBoundedStandardFormHasNoBoundRows pins the tentpole property of the
// bounded standard form: finite variable bounds are data, never rows, so
// the basis dimension is exactly the model's constraint count no matter
// how bound-heavy the model is.  (Before the bounded-variable refactor
// every finite upper bound spawned an explicit row plus a slack column.)
func TestBoundedStandardFormHasNoBoundRows(t *testing.T) {
	p := NewProblem(Minimize)
	for j := 0; j < 10; j++ {
		p.MustVariable("x", 0, float64(j+1), 1) // all finitely bounded
	}
	p.MustVariable("fixed", 2, 2, 1)
	p.MustVariable("mirrored", math.Inf(-1), 5, 1)
	if err := p.AddConstraint("c1", LE, 30, Term{Var(0), 1}, Term{Var(1), 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("c2", GE, 1, Term{Var(2), 1}, Term{Var(10), 1}); err != nil {
		t.Fatal(err)
	}
	std, err := p.standardize()
	if err != nil {
		t.Fatal(err)
	}
	if std.m != p.NumConstraints() {
		t.Fatalf("standard form has %d rows for %d constraints; bounds must not spawn rows",
			std.m, p.NumConstraints())
	}
	// One structural column per variable (none is doubly free here).
	if std.nStruct != p.NumVariables() {
		t.Fatalf("nStruct = %d, want %d", std.nStruct, p.NumVariables())
	}
	// The fixed variable's column is pinned: upper bound zero after the
	// lower-bound shift.
	if u := std.upper[10]; u != 0 {
		t.Fatalf("fixed variable upper = %v, want 0", u)
	}
	// The mirrored variable (lb = −∞, finite ub) has no upper bound in
	// standard form — the mirror substitution absorbed it.
	if u := std.upper[11]; !math.IsInf(u, 1) {
		t.Fatalf("mirrored variable upper = %v, want +Inf", u)
	}
}

// TestBoundFlipChain drives a solve that is nothing but bound flips: a
// single non-binding constraint and a string of profitable upper bounds.
// The optimum must put every variable at its upper bound while the basis
// still holds the one slack column — proof that no structural column ever
// entered the basis and each move was a flip, not a pivot.
func TestBoundFlipChain(t *testing.T) {
	p := NewProblem(Maximize)
	ubs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	vars := make([]Var, len(ubs))
	terms := make([]Term, len(ubs))
	for j, u := range ubs {
		vars[j] = p.MustVariable("x", 0, u, 1+float64(j)*0.1)
		terms[j] = Term{vars[j], 1}
	}
	// Σ x ≤ 100 is slack even with every variable at its upper bound (36).
	if err := p.AddConstraint("cap", LE, 100, terms...); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := 0.0
	for j, u := range ubs {
		if !almostEqual(sol.Value(vars[j]), u, 1e-9) {
			t.Errorf("x[%d] = %v, want its upper bound %v", j, sol.Value(vars[j]), u)
		}
		want += (1 + float64(j)*0.1) * u
	}
	if !almostEqual(sol.Objective, want, 1e-9) {
		t.Errorf("objective = %v, want %v", sol.Objective, want)
	}
	// White box: the only basic column must still be the constraint's
	// slack; all structural columns are nonbasic at their upper bounds.
	basis := sol.Basis()
	if basis == nil || len(basis.cols) != 1 {
		t.Fatalf("basis = %+v, want exactly one row", basis)
	}
	if basis.cols[0].kind != identSlack {
		t.Errorf("basic column kind = %d, want the slack: every move should have been a bound flip", basis.cols[0].kind)
	}
	if len(basis.upper) != len(ubs) {
		t.Errorf("%d columns recorded at upper, want %d", len(basis.upper), len(ubs))
	}
}

// TestFixedVariables pins lo == hi variables: they are shifted onto their
// fixed value, excluded from pricing, and participate in constraints as
// constants.
func TestFixedVariables(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.MustVariable("x", 3, 3, 10) // fixed, expensive: cost must not matter
	y := p.MustVariable("y", 0, 10, 1)
	if err := p.AddConstraint("c", GE, 5, Term{x, 1}, Term{y, 1}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 3, 1e-9) || !almostEqual(sol.Value(y), 2, 1e-9) {
		t.Errorf("solution = (%v, %v), want (3, 2)", sol.Value(x), sol.Value(y))
	}
	if !almostEqual(sol.Objective, 32, 1e-9) {
		t.Errorf("objective = %v, want 32", sol.Objective)
	}

	// A fixed variable that contradicts a constraint makes the problem
	// infeasible.
	bad := NewProblem(Minimize)
	bx := bad.MustVariable("x", 3, 3, 0)
	if err := bad.AddConstraint("c", GE, 5, Term{bx, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}

	// Fixing a variable via SetBounds after a solve is the branch-and-bound
	// "pin to integer" edit; the warm re-solve must agree with cold.
	p2 := NewProblem(Maximize)
	a := p2.MustVariable("a", 0, 4, 2)
	b := p2.MustVariable("b", 0, 4, 1)
	if err := p2.AddConstraint("c", LE, 6, Term{a, 1}, Term{b, 1}); err != nil {
		t.Fatal(err)
	}
	sol2, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.SetBounds(a, 1, 1); err != nil {
		t.Fatal(err)
	}
	warm, err := p2.SolveFrom(sol2.Basis())
	if err != nil {
		t.Fatalf("warm after fixing: %v", err)
	}
	if !almostEqual(warm.Value(a), 1, 1e-9) || !almostEqual(warm.Value(b), 4, 1e-9) {
		t.Errorf("warm solution = (%v, %v), want (1, 4)", warm.Value(a), warm.Value(b))
	}
}

// TestFreeUpperBoundMix pins the hi = +Inf cases alongside bounded
// columns: a variable that is only bounded below never flips, and the
// unbounded ray is still detected when it is the profitable direction.
func TestFreeUpperBoundMix(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.MustVariable("x", 0, 2, 3)                   // bounded: flips to upper
	y := p.MustVariable("y", 1, Infinity, 1)            // hi = +Inf
	z := p.MustVariable("z", math.Inf(-1), Infinity, 2) // doubly free, most valuable
	if err := p.AddConstraint("c", LE, 10, Term{x, 1}, Term{y, 1}, Term{z, 1}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// x at its upper bound, y down to its lower bound, the remaining budget
	// on the most valuable direction z: (2, 1, 7), objective 6+1+14.
	if !almostEqual(sol.Value(x), 2, 1e-9) || !almostEqual(sol.Value(y), 1, 1e-9) ||
		!almostEqual(sol.Value(z), 7, 1e-9) {
		t.Errorf("solution = (%v, %v, %v), want (2, 1, 7)", sol.Value(x), sol.Value(y), sol.Value(z))
	}
	if !almostEqual(sol.Objective, 21, 1e-9) {
		t.Errorf("objective = %v, want 21", sol.Objective)
	}

	// With only finite-bound columns profitable the ray is closed, but an
	// unbounded hi = +Inf direction must still be detected.
	unb := NewProblem(Maximize)
	ux := unb.MustVariable("x", 0, Infinity, 1)
	uy := unb.MustVariable("y", 0, 5, 1)
	if err := unb.AddConstraint("c", GE, 1, Term{ux, 1}, Term{uy, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := unb.Solve(); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

// TestDualRestartAfterTighteningAtUpper is the satellite edge case: the
// first solve leaves a variable nonbasic at its upper bound; SetBounds then
// tightens that bound, so the saved status walks the variable down to the
// new bound and the warm re-solve is a dual-simplex restart (never a cold
// phase 1).  Warm and cold must agree exactly.
func TestDualRestartAfterTighteningAtUpper(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.MustVariable("x", 0, 4, 1)
	y := p.MustVariable("y", 0, 4, 0.5)
	if err := p.AddConstraint("budget", LE, 6, Term{x, 1}, Term{y, 1}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Value(x), 4, 1e-9) || !almostEqual(sol.Value(y), 2, 1e-9) {
		t.Fatalf("solution = (%v, %v), want (4, 2)", sol.Value(x), sol.Value(y))
	}
	basis := sol.Basis()
	if basis == nil {
		t.Fatal("no basis captured")
	}
	// White box: x must be recorded nonbasic at its upper bound.
	foundAtUpper := false
	for _, cid := range basis.upper {
		if cid.kind == identStruct && cid.idx == int(x) {
			foundAtUpper = true
		}
	}
	if !foundAtUpper {
		t.Fatalf("basis.upper = %+v: x should be nonbasic at its upper bound", basis.upper)
	}

	// Tighten the bound the variable is sitting on.
	if err := p.SetBounds(x, 0, 3); err != nil {
		t.Fatal(err)
	}
	warm, err := p.SolveFrom(basis)
	if err != nil {
		t.Fatalf("warm re-solve: %v", err)
	}
	cold, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(warm.Objective, cold.Objective, 1e-9) {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
	if !almostEqual(warm.Value(x), 3, 1e-9) || !almostEqual(warm.Value(y), 3, 1e-9) {
		t.Errorf("warm solution = (%v, %v), want (3, 3)", warm.Value(x), warm.Value(y))
	}

	// Tighten past feasibility: a + b ≥ 8 with a, b ∈ [0, 4] admits only
	// (4, 4), so a ≤ 3 makes the warm dual simplex prove infeasibility.
	p3 := NewProblem(Minimize)
	a := p3.MustVariable("a", 0, 4, 1)
	b := p3.MustVariable("b", 0, 4, 2)
	if err := p3.AddConstraint("need", GE, 8, Term{a, 1}, Term{b, 1}); err != nil {
		t.Fatal(err)
	}
	sol3, err := p3.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.SetBounds(a, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p3.SolveFrom(sol3.Basis()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tightened past feasibility: want ErrInfeasible, got %v", err)
	}
}
