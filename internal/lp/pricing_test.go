package lp

import (
	"math"
	"testing"
)

// partitionShapedLP mirrors the scheduler's 48-hour workload-partitioning
// LP (internal/sched): per DC and hour a load, migration and brown-energy
// variable, hourly placement equalities, migration-smoothing GE rows,
// brown-balance GE rows and capacity LE rows.  Long and thin with massive
// ratio-test degeneracy — the shape devex pricing exists for.
func partitionShapedLP(t testing.TB, nDC, horizon int, phase float64) *Problem {
	t.Helper()
	const totalLoad = 900.0
	prob := NewProblem(Minimize)
	load := make([][]Var, nDC)
	mig := make([][]Var, nDC)
	brown := make([][]Var, nDC)
	for d := 0; d < nDC; d++ {
		load[d] = make([]Var, horizon)
		mig[d] = make([]Var, horizon)
		brown[d] = make([]Var, horizon)
		price := 0.08 + 0.01*float64(d)
		for h := 0; h < horizon; h++ {
			load[d][h] = prob.MustVariable("load", 0, Infinity, 0)
			mig[d][h] = prob.MustVariable("mig", 0, Infinity, price*0.1)
			brown[d][h] = prob.MustVariable("brown", 0, Infinity, price)
		}
	}
	for h := 0; h < horizon; h++ {
		terms := make([]Term, nDC)
		for d := 0; d < nDC; d++ {
			terms[d] = Term{Var: load[d][h], Coeff: 1}
		}
		if err := prob.AddConstraint("place", EQ, totalLoad, terms...); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < nDC; d++ {
		for h := 0; h < horizon; h++ {
			green := 600 * math.Max(0, math.Sin(float64(h+8*d)/24*2*math.Pi+phase))
			terms := []Term{{Var: mig[d][h], Coeff: 1}, {Var: load[d][h], Coeff: 1}}
			rhs := 0.0
			if h == 0 {
				rhs = totalLoad / float64(nDC)
			} else {
				terms = append(terms, Term{Var: load[d][h-1], Coeff: -1})
			}
			if err := prob.AddConstraint("migOut", GE, rhs, terms...); err != nil {
				t.Fatal(err)
			}
			if err := prob.AddConstraint("brown", GE, -green,
				Term{Var: brown[d][h], Coeff: 1},
				Term{Var: load[d][h], Coeff: -1.08},
				Term{Var: mig[d][h], Coeff: -1.08}); err != nil {
				t.Fatal(err)
			}
			if err := prob.AddConstraint("cap", LE, totalLoad,
				Term{Var: load[d][h], Coeff: 1},
				Term{Var: mig[d][h], Coeff: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return prob
}

// solveWithRule solves prob under the given pricing rule and returns the
// solution, failing the test on any non-Optimal outcome.
func solveWithRule(t testing.TB, prob *Problem, rule pricingRule) *Solution {
	t.Helper()
	sol, err := prob.solveRule(rule)
	if err != nil {
		t.Fatalf("rule %v: %v", rule, err)
	}
	return sol
}

// TestPricingRulesAgreeOnPartitionLP pins that all three rules reach the
// same objective on the partition-shaped LP (the vertices may differ —
// degenerate instances have alternative optima) and reports the work each
// rule did.
func TestPricingRulesAgreeOnPartitionLP(t *testing.T) {
	for _, phase := range []float64{0, 1.3, 2.6} {
		prob := partitionShapedLP(t, 3, 48, phase)
		ref := solveWithRule(t, prob, ruleDantzig)
		for _, rule := range []pricingRule{ruleDevex, ruleBland} {
			sol := solveWithRule(t, prob, rule)
			if diff := math.Abs(sol.Objective - ref.Objective); diff > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Errorf("phase %v rule %v: objective %v, dantzig %v", phase, rule, sol.Objective, ref.Objective)
			}
			t.Logf("phase %v rule %-7v: pivots=%4d flips=%3d refactor=%2d resets=%2d",
				phase, rule, sol.Stats.Pivots, sol.Stats.BoundFlips, sol.Stats.Refactorizations,
				sol.Stats.DevexResets)
		}
		t.Logf("phase %v rule dantzig: pivots=%4d flips=%3d refactor=%2d",
			phase, ref.Stats.Pivots, ref.Stats.BoundFlips, ref.Stats.Refactorizations)
	}
}

// TestDevexFewerPivotsOnPartitionLP is the headline claim: on the
// degenerate partition family, devex takes fewer simplex pivots than
// Dantzig's rule, summed across phases so a single lucky instance cannot
// carry the comparison.
func TestDevexFewerPivotsOnPartitionLP(t *testing.T) {
	totalDevex, totalDantzig := 0, 0
	for _, phase := range []float64{0, 0.7, 1.3, 2.1, 2.6} {
		prob := partitionShapedLP(t, 3, 48, phase)
		totalDevex += solveWithRule(t, prob, ruleDevex).Stats.Pivots
		totalDantzig += solveWithRule(t, prob, ruleDantzig).Stats.Pivots
	}
	t.Logf("total pivots: devex=%d dantzig=%d", totalDevex, totalDantzig)
	if totalDevex >= totalDantzig {
		t.Errorf("devex took %d pivots, dantzig %d: devex should need fewer on the degenerate family", totalDevex, totalDantzig)
	}
}
