package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"greencloud/internal/lp"
)

// budget_test pins the branch-and-bound budget contract: a budget that runs
// out after an incumbent exists returns that incumbent with a nil error,
// Proven false and the residual Gap; a budget that runs out before any
// incumbent surfaces the matching budget error.  The knapsack below needs
// 139 nodes to close with seed 1; the first incumbent appears between nodes
// 41 and 80, which is what makes the budgets chosen here deterministic.

func budgetKnapsackFull(t *testing.T) (*Problem, []lp.Var, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	p := NewProblem(lp.Maximize)
	vars := make([]lp.Var, 0, 25)
	weights := make([]float64, 0, 25)
	terms := make([]lp.Term, 0, 25)
	for i := 0; i < 25; i++ {
		v, err := p.AddBinaryVariable("item", 1+rng.Float64()*10)
		if err != nil {
			t.Fatal(err)
		}
		w := 1 + rng.Float64()*10
		vars = append(vars, v)
		weights = append(weights, w)
		terms = append(terms, lp.Term{Var: v, Coeff: w})
	}
	if err := p.AddConstraint("capacity", lp.LE, 40, terms...); err != nil {
		t.Fatal(err)
	}
	return p, vars, weights
}

func budgetKnapsack(t *testing.T) *Problem {
	t.Helper()
	p, _, _ := budgetKnapsackFull(t)
	return p
}

func TestFullSolveIsProven(t *testing.T) {
	sol, err := budgetKnapsack(t).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Proven {
		t.Error("Proven = false on a closed search")
	}
	if sol.Gap != 0 {
		t.Errorf("Gap = %v, want 0 on a closed search", sol.Gap)
	}
}

func TestNodeBudgetBeforeIncumbent(t *testing.T) {
	_, err := budgetKnapsack(t).SolveWithOptions(Options{MaxNodes: 40})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit (no incumbent exists by node 40)", err)
	}
}

func TestNodeBudgetReturnsIncumbent(t *testing.T) {
	p, vars, weights := budgetKnapsackFull(t)
	full, err := budgetKnapsack(t).Solve()
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	sol, err := p.SolveWithOptions(Options{MaxNodes: 80})
	if err != nil {
		t.Fatalf("budgeted solve: %v (an incumbent exists by node 80, so the solve must not error)", err)
	}
	if sol.Proven {
		t.Error("Proven = true, want false on a budget-stopped search")
	}
	if sol.Gap < 0 {
		t.Errorf("Gap = %v, want >= 0", sol.Gap)
	}
	if sol.Nodes != 80 {
		t.Errorf("Nodes = %d, want exactly the budget 80", sol.Nodes)
	}
	if sol.Objective > full.Objective+1e-6 {
		t.Errorf("incumbent %v beats the proven optimum %v", sol.Objective, full.Objective)
	}
	// The incumbent must be genuinely feasible: integral and within capacity.
	weight := 0.0
	for i, v := range vars {
		val := sol.Value(v)
		if math.Abs(val-math.Round(val)) > 1e-6 {
			t.Errorf("item %d value %v is not integral", i, val)
		}
		weight += weights[i] * math.Round(val)
	}
	if weight > 40+1e-6 {
		t.Errorf("incumbent weight %v exceeds capacity 40", weight)
	}
}

// TestDeadlineBeforeIncumbent trips the LP deadline fault in the root
// relaxation: no incumbent can exist yet, so the solve must surface
// ErrDeadline (wrapping context.DeadlineExceeded).
func TestDeadlineBeforeIncumbent(t *testing.T) {
	t.Cleanup(lp.DisarmFaults)
	lp.ArmFault(lp.FaultExpireDeadline, 0, 1)
	_, err := budgetKnapsack(t).SolveWithOptions(Options{Ctx: hourDeadline(t)})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ErrDeadline should wrap context.DeadlineExceeded; got %v", err)
	}
}

// TestDeadlineAfterIncumbent lets the search run long enough to find an
// incumbent, then trips the LP deadline fault in a later relaxation: the
// solve must return the incumbent with a nil error instead of the budget
// error.
func TestDeadlineAfterIncumbent(t *testing.T) {
	t.Cleanup(lp.DisarmFaults)
	// The fault's skip counts pivot iterations across all of the tree's LP
	// solves; 400 lands after the first incumbent (found near node 60) but
	// before the search closes at node 139.
	lp.ArmFault(lp.FaultExpireDeadline, 400, 1)
	sol, err := budgetKnapsack(t).SolveWithOptions(Options{Ctx: hourDeadline(t)})
	if err != nil {
		t.Fatalf("err = %v, want the incumbent with a nil error", err)
	}
	if sol.Proven {
		t.Error("Proven = true, want false on a deadline-stopped search")
	}
	if sol.Gap < 0 {
		t.Errorf("Gap = %v, want >= 0", sol.Gap)
	}
}

func TestContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := budgetKnapsack(t).SolveWithOptions(Options{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ErrCancelled should wrap context.Canceled; got %v", err)
	}
}

func TestPastDeadlineBeforeStart(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := budgetKnapsack(t).SolveWithOptions(Options{Ctx: ctx})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// hourDeadline returns a context whose deadline is an hour away: it arms
// the relaxations' budget polling, so an injected deadline fault fires.
func hourDeadline(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	t.Cleanup(cancel)
	return ctx
}
