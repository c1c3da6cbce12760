package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestPresolveEmptyProblem pins the degenerate extremes of the model
// builder: no variables and no constraints, and variables but no
// constraints, where every column parks at its cheap bound. The name
// predates the removal of the presolve pass that once handled these models.
func TestPresolveEmptyProblem(t *testing.T) {
	p := NewProblem(Minimize)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("empty problem: sol=%+v err=%v, want Optimal 0", sol, err)
	}

	p = NewProblem(Minimize)
	x := p.MustVariable("x", 1, 5, 2)
	y := p.MustVariable("y", -3, 4, -1)
	if sol, err = p.Solve(); err != nil {
		t.Fatalf("constraint-free problem: %v", err)
	}
	if sol.Value(x) != 1 || sol.Value(y) != 4 {
		t.Errorf("constraint-free values (%v, %v), want (1, 4)", sol.Value(x), sol.Value(y))
	}
	if want := 2*1.0 - 4.0; !almostEqual(sol.Objective, want, 1e-12) {
		t.Errorf("constraint-free objective = %v, want %v", sol.Objective, want)
	}
}

// TestPresolveContradictorySingletons pins two singleton rows that bound one
// variable from opposite sides with no overlap: the solve must report
// Infeasible.
func TestPresolveContradictorySingletons(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.MustVariable("x", 0, 100, 1)
	if err := p.AddConstraint("ge5", GE, 5, Term{x, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("le3", LE, 3, Term{x, 1}); err != nil {
		t.Fatal(err)
	}
	if sol, err := p.Solve(); !errors.Is(err, ErrInfeasible) || sol.Status != Infeasible {
		t.Fatalf("contradictory singletons: status=%v err=%v, want Infeasible", sol.Status, err)
	}
}

// TestPresolveAllColumnsFixed pins a row over fixed variables only: when it
// is satisfiable its basis must warm-start a re-solve without a cold
// fallback, and when it contradicts its right-hand side the solve must
// report Infeasible.
func TestPresolveAllColumnsFixed(t *testing.T) {
	fixed := func(rhs float64) (*Problem, Var, Var) {
		p := NewProblem(Maximize)
		x := p.MustVariable("x", 2, 2, 3)
		y := p.MustVariable("y", -1, -1, 5)
		if err := p.AddConstraint("sum", LE, rhs, Term{x, 1}, Term{y, 1}); err != nil {
			t.Fatal(err)
		}
		return p, x, y
	}
	p, x, y := fixed(10) // 2 + (−1) = 1 ≤ 10: feasible
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("all fixed, feasible: sol=%+v err=%v", sol, err)
	}
	if sol.Value(x) != 2 || sol.Value(y) != -1 {
		t.Errorf("all-fixed values (%v, %v), want (2, -1)", sol.Value(x), sol.Value(y))
	}
	if want := 3.0*2 + 5.0*(-1); !almostEqual(sol.Objective, want, 1e-12) {
		t.Errorf("all-fixed objective = %v, want %v", sol.Objective, want)
	}
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil || warm.Status != Optimal || warm.Stats.ColdFallbacks != 0 {
		t.Fatalf("all fixed, warm re-solve: %+v err=%v", warm, err)
	}
	p, _, _ = fixed(0) // 1 ≤ 0: infeasible
	if sol, err = p.Solve(); !errors.Is(err, ErrInfeasible) || sol.Status != Infeasible {
		t.Fatalf("all fixed, contradictory: status=%v err=%v, want Infeasible", sol.Status, err)
	}
}

// TestPresolveForcingRow pins a forcing row, whose minimum activity equals
// its right-hand side and so pins every variable, and its just-infeasible
// variant, whose minimum activity exceeds the right-hand side.
func TestPresolveForcingRow(t *testing.T) {
	forcing := func(rhs float64) (*Problem, Var, Var) {
		p := NewProblem(Minimize)
		a := p.MustVariable("a", 1, 5, -1) // the costs would prefer a=5, b=9
		b := p.MustVariable("b", 2, 9, -1)
		if err := p.AddConstraint("force", LE, rhs, Term{a, 1}, Term{b, 1}); err != nil {
			t.Fatal(err)
		}
		return p, a, b
	}
	p, a, b := forcing(3) // min activity 1 + 2 = 3: a=1, b=2
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("forcing row: %v", err)
	}
	if sol.Value(a) != 1 || sol.Value(b) != 2 {
		t.Errorf("forced values (%v, %v), want (1, 2)", sol.Value(a), sol.Value(b))
	}
	if want := -3.0; !almostEqual(sol.Objective, want, 1e-9) {
		t.Errorf("forcing-row objective = %v, want %v", sol.Objective, want)
	}
	p, _, _ = forcing(2.9) // min activity 3 > 2.9
	if sol, err = p.Solve(); !errors.Is(err, ErrInfeasible) || sol.Status != Infeasible {
		t.Fatalf("forcing row, just infeasible: status=%v err=%v, want Infeasible", sol.Status, err)
	}
}

// TestWarmChainStaysWarm pins the warm-start contract of the two chains
// production runs: a milp-style chain of bound pins and a sched-style chain
// of rhs rewrites, each re-solved with SolveFrom, must never fall back to a
// cold solve, and every warm optimum of the pin chain must match an
// independent cold solve.
func TestWarmChainStaysWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(9182))
	nVars, nCons := 18, 10
	p := NewProblem(Minimize)
	vars := make([]Var, nVars)
	for j := range vars {
		vars[j] = p.MustVariable("x", 0, 5+rng.Float64()*5, -2+rng.Float64()*4)
	}
	for i := 0; i < nCons; i++ {
		terms := make([]Term, 0, nVars)
		for j := range vars {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{vars[j], -1 + rng.Float64()*3})
			}
		}
		if err := p.AddConstraint("c", LE, 20+rng.Float64()*30, terms...); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("root solve: %v", err)
	}
	basis := sol.Basis()

	// milp-style: pin a variable per step (lb == ub), warm-restart.
	for step := 0; step < 8; step++ {
		v := vars[rng.Intn(nVars)]
		pin := math.Floor(sol.Value(v))
		if err := p.SetBounds(v, pin, pin); err != nil {
			t.Fatal(err)
		}
		sol, err = p.SolveFrom(basis)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				break
			}
			t.Fatalf("step %d: %v", step, err)
		}
		if sol.Stats.ColdFallbacks != 0 {
			t.Fatalf("step %d: warm chain fell back cold (%+v)", step, sol.Stats)
		}
		cold, errC := p.Solve()
		if errC != nil {
			t.Fatalf("step %d cold check: %v", step, errC)
		}
		tol := 1e-9 * (1 + math.Abs(cold.Objective))
		if !almostEqual(sol.Objective, cold.Objective, tol) {
			t.Fatalf("step %d: warm %v vs cold %v", step, sol.Objective, cold.Objective)
		}
		basis = sol.Basis()
	}

	// sched-style: rewrite right-hand sides, warm-restart on one basis.
	for step := 0; step < 8; step++ {
		for i := 0; i < nCons; i++ {
			if err := p.SetRHS(i, 20+rng.Float64()*30); err != nil {
				t.Fatal(err)
			}
		}
		sol, err = p.SolveFrom(basis)
		if err != nil {
			t.Fatalf("rhs step %d: %v", step, err)
		}
		if sol.Stats.ColdFallbacks != 0 {
			t.Fatalf("rhs step %d: warm chain fell back cold (%+v)", step, sol.Stats)
		}
		basis = sol.Basis()
	}
}
