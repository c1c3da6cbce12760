package milp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"greencloud/internal/lp"
)

func TestPureLPPassThrough(t *testing.T) {
	p := NewProblem(lp.Maximize)
	x, err := p.AddVariable("x", 0, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	y, err := p.AddVariable("y", 0, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("c", lp.LE, 18, lp.Term{Var: x, Coeff: 3}, lp.Term{Var: y, Coeff: 2}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if sol.Nodes != 1 {
		t.Errorf("nodes = %d, want 1 for a pure LP", sol.Nodes)
	}
}

func TestKnapsack(t *testing.T) {
	// 0/1 knapsack: values 10, 13, 7, 8; weights 5, 6, 3, 4; capacity 10.
	// Optimum: items 2 and 4 (13+8=21, weight 10).
	values := []float64{10, 13, 7, 8}
	weights := []float64{5, 6, 3, 4}
	p := NewProblem(lp.Maximize)
	vars := make([]lp.Var, 4)
	terms := make([]lp.Term, 4)
	for i := range values {
		v, err := p.AddBinaryVariable("item", values[i])
		if err != nil {
			t.Fatal(err)
		}
		vars[i] = v
		terms[i] = lp.Term{Var: v, Coeff: weights[i]}
	}
	if err := p.AddConstraint("capacity", lp.LE, 10, terms...); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Objective-21) > 1e-6 {
		t.Errorf("objective = %v, want 21", sol.Objective)
	}
	for i, v := range vars {
		val := sol.Value(v)
		if math.Abs(val-math.Round(val)) > 1e-6 {
			t.Errorf("item %d value %v is not integral", i, val)
		}
	}
	if sol.Value(vars[1]) != 1 || sol.Value(vars[3]) != 1 {
		t.Errorf("wrong items selected: %v", sol)
	}
}

func TestIntegerRounding(t *testing.T) {
	// maximize x s.t. 2x ≤ 7, x integer → x=3 (LP relaxation gives 3.5).
	p := NewProblem(lp.Maximize)
	x, err := p.AddIntegerVariable("x", 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("c", lp.LE, 7, lp.Term{Var: x, Coeff: 2}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Value(x) != 3 {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// Facility-style model: open ∈ {0,1} with fixed cost 10, capacity 8;
	// serve demand 5 with per-unit cost 1 from the facility or 4 from a
	// fallback.  Optimum: open the facility, total 10 + 5 = 15.
	p := NewProblem(lp.Minimize)
	open, err := p.AddBinaryVariable("open", 10)
	if err != nil {
		t.Fatal(err)
	}
	serve, err := p.AddVariable("serve", 0, lp.Infinity, 1)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := p.AddVariable("fallback", 0, lp.Infinity, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("demand", lp.GE, 5,
		lp.Term{Var: serve, Coeff: 1}, lp.Term{Var: fallback, Coeff: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("capacity", lp.LE, 0,
		lp.Term{Var: serve, Coeff: 1}, lp.Term{Var: open, Coeff: -8}); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Objective-15) > 1e-6 {
		t.Errorf("objective = %v, want 15", sol.Objective)
	}
	if sol.Value(open) != 1 {
		t.Errorf("facility should be open")
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := NewProblem(lp.Minimize)
	x, err := p.AddIntegerVariable("x", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("impossible", lp.GE, 5, lp.Term{Var: x, Coeff: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestIntegerInfeasibleButLPFeasible(t *testing.T) {
	// 2x = 1 with x integer in [0,1]: the relaxation is feasible (x=0.5)
	// but no integer solution exists.
	p := NewProblem(lp.Minimize)
	x, err := p.AddIntegerVariable("x", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("eq", lp.EQ, 1, lp.Term{Var: x, Coeff: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := NewProblem(lp.Maximize)
	if _, err := p.AddIntegerVariable("x", 0, lp.Infinity, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

func TestNodeLimit(t *testing.T) {
	// A knapsack with many items and a tiny node budget must hit the limit
	// (or finish, in which case the limit error must not fire spuriously).
	rng := rand.New(rand.NewSource(1))
	p := NewProblem(lp.Maximize)
	terms := make([]lp.Term, 0, 25)
	for i := 0; i < 25; i++ {
		v, err := p.AddBinaryVariable("item", 1+rng.Float64()*10)
		if err != nil {
			t.Fatal(err)
		}
		terms = append(terms, lp.Term{Var: v, Coeff: 1 + rng.Float64()*10})
	}
	if err := p.AddConstraint("capacity", lp.LE, 40, terms...); err != nil {
		t.Fatal(err)
	}
	_, err := p.SolveWithOptions(Options{MaxNodes: 3})
	if err != nil && !errors.Is(err, ErrNodeLimit) {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem(lp.Minimize)
	if _, err := p.AddVariable("bad", 2, 1, 0); err == nil {
		t.Error("ub < lb should error")
	}
	if _, err := p.AddVariable("nan", math.NaN(), 1, 0); err == nil {
		t.Error("NaN bound should error")
	}
	if err := p.AddConstraint("bad", lp.LE, 1, lp.Term{Var: 99, Coeff: 1}); err == nil {
		t.Error("unknown variable should error")
	}
	x, err := p.AddBinaryVariable("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.lpProto.vars) != 1 || len(p.integers) != 1 {
		t.Errorf("counts = %d/%d, want 1/1", len(p.lpProto.vars), len(p.integers))
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 0 {
		t.Errorf("minimizing cost-1 binary should pick 0, got %v", sol.Value(x))
	}
	if !math.IsNaN(sol.Value(lp.Var(9))) {
		t.Error("out-of-range Value should be NaN")
	}
}

// TestBranchingDeterministic pins run-to-run reproducibility now that nodes
// share one mutable relaxation and warm-start from their parents' bases:
// solving the same model twice must explore the same number of nodes and
// return bit-identical values.
func TestBranchingDeterministic(t *testing.T) {
	build := func() *Problem {
		rng := rand.New(rand.NewSource(5))
		p := NewProblem(lp.Maximize)
		terms := make([]lp.Term, 0, 14)
		for i := 0; i < 14; i++ {
			v, err := p.AddBinaryVariable("item", 1+rng.Float64()*10)
			if err != nil {
				t.Fatal(err)
			}
			terms = append(terms, lp.Term{Var: v, Coeff: 1 + rng.Float64()*10})
		}
		if err := p.AddConstraint("capacity", lp.LE, 35, terms...); err != nil {
			t.Fatal(err)
		}
		return p
	}
	first, err := build().Solve()
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// Same model solved twice — fresh Problem and re-Solve on the same
	// Problem (which reuses the shared relaxation) must both agree.
	reused := build()
	second, err := reused.Solve()
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	third, err := reused.Solve()
	if err != nil {
		t.Fatalf("re-solve on the same Problem: %v", err)
	}
	for _, other := range []*Solution{second, third} {
		if other.Nodes != first.Nodes {
			t.Errorf("node count %d, want %d", other.Nodes, first.Nodes)
		}
		if other.Objective != first.Objective {
			t.Errorf("objective %v, want bit-identical %v", other.Objective, first.Objective)
		}
		for v := 0; v < 14; v++ {
			if other.Value(lp.Var(v)) != first.Value(lp.Var(v)) {
				t.Errorf("value[%d] = %v, want %v", v, other.Value(lp.Var(v)), first.Value(lp.Var(v)))
			}
		}
	}
}

func TestSchedulerShapedMILP(t *testing.T) {
	// A miniature of GreenNebula's partitioning problem: 3 datacenters ×
	// 8 hours, place 100 kW of load each hour to minimize brown energy given
	// per-DC green supply, with per-DC capacity 100.  The optimum follows
	// the green supply exactly, so the brown energy has a known value.
	const (
		nDC    = 3
		nHours = 8
		load   = 100.0
	)
	green := [nDC][nHours]float64{
		{80, 80, 0, 0, 0, 0, 0, 0},
		{0, 0, 90, 90, 90, 0, 0, 0},
		{0, 0, 0, 0, 0, 70, 70, 70},
	}
	p := NewProblem(lp.Minimize)
	vars := [nDC][nHours]lp.Var{}
	for d := 0; d < nDC; d++ {
		for h := 0; h < nHours; h++ {
			v, err := p.AddVariable("load", 0, load, 0)
			if err != nil {
				t.Fatal(err)
			}
			vars[d][h] = v
			// brown_{d,h} ≥ load_{d,h} − green_{d,h}
			brown, err := p.AddVariable("brown", 0, lp.Infinity, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AddConstraint("brown-def", lp.GE, -green[d][h],
				lp.Term{Var: brown, Coeff: 1}, lp.Term{Var: v, Coeff: -1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for h := 0; h < nHours; h++ {
		terms := make([]lp.Term, nDC)
		for d := 0; d < nDC; d++ {
			terms[d] = lp.Term{Var: vars[d][h], Coeff: 1}
		}
		if err := p.AddConstraint("demand", lp.EQ, load, terms...); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Best achievable brown energy: hours 0-1 have only 80 green at DC0
	// (20 brown each), hours 2-4 have 90 (10 brown each), hours 5-7 have 70
	// (30 brown each) → 2·20 + 3·10 + 3·30 = 160.
	if math.Abs(sol.Objective-160) > 1e-5 {
		t.Errorf("objective = %v, want 160", sol.Objective)
	}
}

// TestBranchingAddsNoRows pins the bounded-simplex contract branch and
// bound relies on: every node re-solves the one shared relaxation with its
// branch bounds edited in place (lp.SetBounds), so the relaxation's
// constraint count — and with it the simplex basis dimension, now that
// internal/lp keeps variable bounds implicit — never grows, no matter how
// many nodes the search explores.
func TestBranchingAddsNoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewProblem(lp.Maximize)
	terms := make([]lp.Term, 0, 12)
	for i := 0; i < 12; i++ {
		v, err := p.AddIntegerVariable("item", 0, 3, 1+rng.Float64()*9)
		if err != nil {
			t.Fatal(err)
		}
		terms = append(terms, lp.Term{Var: v, Coeff: 1 + rng.Float64()*5})
	}
	if err := p.AddConstraint("capacity", lp.LE, 23, terms...); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Nodes < 3 {
		t.Fatalf("only %d nodes explored; the instance should branch", sol.Nodes)
	}
	if p.relax == nil {
		t.Fatal("no shared relaxation was built")
	}
	if got, want := p.relax.NumConstraints(), len(p.lpProto.cons); got != want {
		t.Errorf("relaxation has %d constraints after %d nodes, want %d: branching must edit bounds, not add rows",
			got, sol.Nodes, want)
	}
	if got, want := p.relax.NumVariables(), len(p.lpProto.vars); got != want {
		t.Errorf("relaxation has %d variables, want %d", got, want)
	}
}

// TestNodeChainStaysWarm pins the warm-start contract at the milp layer: a
// branching search over a 16-item knapsack must reach the optimum a
// brute-force enumeration of all 2^16 subsets finds, and no node's
// warm-started relaxation may fall back to a cold solve — branch-bound
// edits under a parent basis have to keep that basis installable.
func TestNodeChainStaysWarm(t *testing.T) {
	const items, capacity = 16, 40.0
	rng := rand.New(rand.NewSource(17))
	p := NewProblem(lp.Maximize)
	value := make([]float64, items)
	weight := make([]float64, items)
	terms := make([]lp.Term, 0, items)
	for i := range value {
		value[i] = 1 + rng.Float64()*9
		v, err := p.AddBinaryVariable("item", value[i])
		if err != nil {
			t.Fatal(err)
		}
		weight[i] = 1 + rng.Float64()*9
		terms = append(terms, lp.Term{Var: v, Coeff: weight[i]})
	}
	if err := p.AddConstraint("capacity", lp.LE, capacity, terms...); err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}

	best := 0.0
	for mask := 0; mask < 1<<items; mask++ {
		v, w := 0.0, 0.0
		for i := 0; i < items; i++ {
			if mask&(1<<i) != 0 {
				v += value[i]
				w += weight[i]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	if math.Abs(sol.Objective-best) > 1e-9*best {
		t.Errorf("objective %v, brute force %v", sol.Objective, best)
	}
	if !sol.Proven {
		t.Error("search did not close")
	}
	if sol.Nodes <= 1 {
		t.Fatalf("instance solved at the root (%d nodes); the warm-chain assertion needs branching", sol.Nodes)
	}
	if sol.LPStats.ColdFallbacks != 0 {
		t.Errorf("%d cold fallbacks across %d nodes; branch edits must keep parent bases installable (%+v)",
			sol.LPStats.ColdFallbacks, sol.Nodes, sol.LPStats)
	}
	if sol.LPStats.Pivots == 0 {
		t.Errorf("LPStats recorded no simplex work over %d nodes", sol.Nodes)
	}
}
