package lp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// resilience_test drives every rung of the solver's recovery ladder with a
// deterministic injected fault: singular-basis repair, warm-corruption cold
// retry, eta/FTRAN NaN guards, the degenerate-stall switch to Bland's rule,
// and the deadline/cancellation budget stops.  Each test arms a named fault
// point and asserts both the recovery (Stats counters) and that the final
// answer still matches the known optimum.

// transportLP builds the balanced transportation LP used across these tests:
// five rows, six structurals, optimum 210 (see TestTransportationProblem).
func transportLP(t *testing.T) *Problem {
	t.Helper()
	cost := [2][3]float64{{2, 3, 1}, {5, 4, 8}}
	supply := []float64{30, 40}
	demand := []float64{20, 25, 25}
	p := NewProblem(Minimize)
	var xs [2][3]Var
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			xs[i][j] = p.MustVariable("x", 0, Infinity, cost[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		if err := p.AddConstraint("supply", LE, supply[i],
			Term{xs[i][0], 1}, Term{xs[i][1], 1}, Term{xs[i][2], 1}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 3; j++ {
		if err := p.AddConstraint("demand", GE, demand[j],
			Term{xs[0][j], 1}, Term{xs[1][j], 1}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

const transportOptimum = 210.0

func disarmAfter(t *testing.T) {
	t.Helper()
	t.Cleanup(DisarmFaults)
}

func TestStatsOnPlainSolve(t *testing.T) {
	sol, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Stats.Pivots == 0 {
		t.Error("Stats.Pivots = 0, want > 0")
	}
	if sol.Stats.Refactorizations == 0 {
		t.Error("Stats.Refactorizations = 0, want > 0")
	}
	if sol.Stats.Repairs != 0 || sol.Stats.NaNGuards != 0 || sol.Stats.ColdFallbacks != 0 {
		t.Errorf("fault-free solve reported recovery work: %+v", sol.Stats)
	}
}

func TestSolveWithOptionsZeroMatchesSolve(t *testing.T) {
	p := transportLP(t)
	plain, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	opted, err := transportLP(t).SolveWithOptions(SolveOptions{})
	if err != nil {
		t.Fatalf("SolveWithOptions: %v", err)
	}
	if plain.Objective != opted.Objective {
		t.Errorf("zero-options solve diverged: %v vs %v", plain.Objective, opted.Objective)
	}
}

// TestWarmSingularRepair injects a singular factorization into a warm start
// and asserts the solver repairs the basis in place (ejecting the offending
// column for a slack) rather than failing or silently falling cold.
func TestWarmSingularRepair(t *testing.T) {
	disarmAfter(t)
	p := transportLP(t)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	ArmFault(FaultSingularLU, 0, 1)
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("warm solve with injected singular LU: %v", err)
	}
	if !almostEqual(warm.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective after repair = %v, want %v", warm.Objective, transportOptimum)
	}
	if warm.Stats.Repairs == 0 {
		t.Errorf("Stats.Repairs = 0, want > 0 (singular fault should have forced a repair); stats %+v", warm.Stats)
	}
}

// TestWarmCorruptionColdRetry exhausts the repair budget (the factorization
// keeps coming back singular) so the warm attempt is abandoned and the solve
// falls back to a cold start — which, with the fault budget consumed, runs
// clean and still reaches the optimum.
func TestWarmCorruptionColdRetry(t *testing.T) {
	disarmAfter(t)
	p := transportLP(t)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	// maxBasisRepairs failed attempts get repaired; the next failure exceeds
	// the budget and aborts the warm start.  One more fire than the budget
	// consumes the arm exactly, so the cold retry factorizes cleanly.
	ArmFault(FaultSingularLU, 0, maxBasisRepairs+1)
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("warm solve with corrupted basis: %v", err)
	}
	if !almostEqual(warm.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective after cold retry = %v, want %v", warm.Objective, transportOptimum)
	}
	if warm.Stats.ColdFallbacks != 1 {
		t.Errorf("Stats.ColdFallbacks = %d, want 1; stats %+v", warm.Stats.ColdFallbacks, warm.Stats)
	}
	if warm.Stats.Repairs != maxBasisRepairs {
		t.Errorf("Stats.Repairs = %d, want %d; stats %+v", warm.Stats.Repairs, maxBasisRepairs, warm.Stats)
	}
}

// TestCorruptEtaNaNGuard corrupts the pivot entry of an eta vector so a later
// FTRAN through it turns non-finite, and asserts the guard answers with a
// refactorization instead of a poisoned pivot.
func TestCorruptEtaNaNGuard(t *testing.T) {
	disarmAfter(t)
	ArmFault(FaultCorruptEta, 0, 1)
	sol, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("Solve with corrupted eta: %v", err)
	}
	if !almostEqual(sol.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective = %v, want %v", sol.Objective, transportOptimum)
	}
	if sol.Stats.NaNGuards == 0 {
		t.Errorf("Stats.NaNGuards = 0, want > 0 (corrupted eta should have tripped the guard); stats %+v", sol.Stats)
	}
}

// TestPoisonPivotNaNGuard poisons an FTRAN column mid-solve and asserts the
// solver refactorizes, retries the pivot, and still reaches the optimum.
func TestPoisonPivotNaNGuard(t *testing.T) {
	disarmAfter(t)
	ArmFault(FaultPoisonPivot, 2, 1)
	sol, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("Solve with poisoned FTRAN column: %v", err)
	}
	if !almostEqual(sol.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective = %v, want %v", sol.Objective, transportOptimum)
	}
	if sol.Stats.NaNGuards == 0 {
		t.Errorf("Stats.NaNGuards = 0, want > 0; stats %+v", sol.Stats)
	}
}

// TestNaNGuardExhaustion keeps poisoning every FTRAN column; once the retry
// budget is spent the solve must surface ErrNumeric — never a panic, never a
// fake-optimal solution built from NaN arithmetic.
func TestNaNGuardExhaustion(t *testing.T) {
	disarmAfter(t)
	ArmFault(FaultPoisonPivot, 0, 1<<20)
	_, err := transportLP(t).Solve()
	if err == nil {
		t.Fatal("Solve with permanently poisoned FTRAN succeeded, want ErrNumeric")
	}
	if !errors.Is(err, ErrNumeric) {
		t.Errorf("err = %v, want ErrNumeric", err)
	}
}

// TestForceStallSwitchesToBland trips the degenerate-stall detector and
// asserts the pricing switch to Bland's rule is taken and counted while the
// solve still reaches the optimum.
func TestForceStallSwitchesToBland(t *testing.T) {
	disarmAfter(t)
	ArmFault(FaultForceStall, 0, 1)
	sol, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("Solve with forced stall: %v", err)
	}
	if !almostEqual(sol.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective = %v, want %v", sol.Objective, transportOptimum)
	}
	if sol.Stats.BlandSwitches == 0 {
		t.Errorf("Stats.BlandSwitches = 0, want > 0; stats %+v", sol.Stats)
	}
}

func TestDeadlineFaultPoint(t *testing.T) {
	disarmAfter(t)
	ArmFault(FaultExpireDeadline, 0, 1)
	sol, err := transportLP(t).Solve()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ErrDeadline should wrap context.DeadlineExceeded; got %v", err)
	}
	if sol != nil {
		t.Errorf("solution = %+v, want nil on deadline", sol)
	}
}

func TestRealDeadlineExpired(t *testing.T) {
	opts := SolveOptions{Deadline: time.Now().Add(-time.Second)}
	_, err := transportLP(t).SolveWithOptions(opts)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestContextDeadlineExpired pins that a context whose deadline has passed
// stops the solve as a deadline, not as a cancellation.
func TestContextDeadlineExpired(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := transportLP(t).SolveWithOptions(SolveOptions{Ctx: ctx})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := transportLP(t).SolveWithOptions(SolveOptions{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ErrCancelled should wrap context.Canceled; got %v", err)
	}
}

func TestMaxItersBudget(t *testing.T) {
	_, err := transportLP(t).solveFrom(nil, &solveControl{maxIters: 1})
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("err = %v, want ErrNumeric from the iteration cap", err)
	}
}

// TestFaultRecoveryMatchesCleanSolve pins that a solve that had to recover
// (repair + NaN guard + stall switch all injected) reaches the same optimum
// as a clean solve.
func TestFaultRecoveryMatchesCleanSolve(t *testing.T) {
	disarmAfter(t)
	clean, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	ArmFault(FaultPoisonPivot, 1, 1)
	ArmFault(FaultForceStall, 0, 1)
	dirty, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if !almostEqual(clean.Objective, dirty.Objective, 1e-9) {
		t.Errorf("faulted solve objective %v != clean %v", dirty.Objective, clean.Objective)
	}
}

// TestStallLatchReleasesBackToDevex drives the full stall round-trip under
// the default devex rule: the forced stall latches Bland's rule (counted in
// BlandSwitches), and the first strictly-improving pivot afterwards releases
// the latch back to devex, restarting the reference framework — which is
// observable as a DevexReset.  The same fault under Dantzig must latch
// without touching any devex counter: the release path is rule-aware.
func TestStallLatchReleasesBackToDevex(t *testing.T) {
	disarmAfter(t)

	ArmFault(FaultForceStall, 1, 1)
	sol, err := transportLP(t).Solve()
	if err != nil {
		t.Fatalf("devex solve with forced stall: %v", err)
	}
	if !almostEqual(sol.Objective, transportOptimum, 1e-6) {
		t.Errorf("objective = %v, want %v", sol.Objective, transportOptimum)
	}
	if sol.Stats.BlandSwitches != 1 {
		t.Errorf("Stats.BlandSwitches = %d, want 1; stats %+v", sol.Stats.BlandSwitches, sol.Stats)
	}
	if sol.Stats.DevexResets == 0 {
		t.Errorf("Stats.DevexResets = 0, want ≥ 1: releasing the stall latch must restart the devex framework; stats %+v", sol.Stats)
	}

	ArmFault(FaultForceStall, 1, 1)
	dsol, err := transportLP(t).solveRule(ruleDantzig)
	if err != nil {
		t.Fatalf("dantzig solve with forced stall: %v", err)
	}
	if dsol.Stats.BlandSwitches != 1 {
		t.Errorf("dantzig: Stats.BlandSwitches = %d, want 1; stats %+v", dsol.Stats.BlandSwitches, dsol.Stats)
	}
	if dsol.Stats.DevexResets != 0 {
		t.Errorf("dantzig: Stats.DevexResets = %d, want 0: no devex framework exists to reset", dsol.Stats.DevexResets)
	}
}
