package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancel_test pins context/deadline behavior of both solvers: an uncancelled
// Ctx never changes the heuristic's answer, cancellation surfaces the context
// error (with the partial best when one exists), and the exact solver's
// Deadline/Ctx budgets flow through to the branch-and-bound tree.

func TestSolveUncancelledCtxIsIdentical(t *testing.T) {
	cat := testCatalog(t, 60)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	opts := SolveOptions{FilterKeep: 15, Chains: 2, MaxIterations: 40, Seed: 1}

	bare, err := Solve(cat, spec, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	opts.Ctx = context.Background()
	withCtx, err := Solve(cat, spec, opts)
	if err != nil {
		t.Fatalf("Solve with ctx: %v", err)
	}
	if bare.TotalMonthlyUSD != withCtx.TotalMonthlyUSD {
		t.Errorf("uncancelled ctx changed the solution: %v vs %v", bare.TotalMonthlyUSD, withCtx.TotalMonthlyUSD)
	}
	if len(bare.Sites) != len(withCtx.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(bare.Sites), len(withCtx.Sites))
	}
	for i := range bare.Sites {
		if bare.Sites[i].Site.ID != withCtx.Sites[i].Site.ID {
			t.Errorf("site %d differs: %d vs %d", i, bare.Sites[i].Site.ID, withCtx.Sites[i].Site.ID)
		}
	}
}

func TestSolveCancelledSurfacesContextError(t *testing.T) {
	cat := testCatalog(t, 60)
	spec := smallSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	best, err := Solve(cat, spec, SolveOptions{FilterKeep: 15, Chains: 2, MaxIterations: 40, Seed: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
	// If a partial best came back it must be a coherent solution.
	if best != nil && best.TotalMonthlyUSD <= 0 {
		t.Errorf("partial best has non-positive cost %v", best.TotalMonthlyUSD)
	}
}

func TestSolveExactDeadlineAndCtx(t *testing.T) {
	cat := testCatalog(t, 20)
	spec := smallSpec()
	ids := []int{0, 1, 2, 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveExact(cat, ids, spec, ExactOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled exact solve: err = %v, want a context.Canceled chain", err)
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, err := SolveExact(cat, ids, spec, ExactOptions{Ctx: expired}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired exact solve: err = %v, want a context.DeadlineExceeded chain", err)
	}
}
