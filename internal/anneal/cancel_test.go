package anneal

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// cancel_test pins the cooperative-cancellation contract: an uncancelled
// Ctx never perturbs the search (bit-identical results), and a Ctx cancelled
// mid-flight stops every chain promptly and hands back the partial best with
// the context's error.

func quadEnergy(x float64) float64 { return (x - 3) * (x - 3) }

func quadCfg(ctx context.Context, chains int, sequential bool, energy func(float64) float64) Config[float64] {
	return plain(Config[float64]{
		Initial:       50,
		MaxIterations: 5000,
		MaxStale:      5000,
		Seed:          1,
		Chains:        chains,
		Sequential:    sequential,
		Ctx:           ctx,
	}, energy, func(x float64, rng *rand.Rand) float64 {
		return x + rng.NormFloat64()*2
	})
}

func TestUncancelledCtxIsBitIdentical(t *testing.T) {
	for _, chains := range []int{1, 4} {
		bare, err := Run(quadCfg(nil, chains, false, quadEnergy))
		if err != nil {
			t.Fatalf("chains=%d without ctx: %v", chains, err)
		}
		withCtx, err := Run(quadCfg(context.Background(), chains, false, quadEnergy))
		if err != nil {
			t.Fatalf("chains=%d with ctx: %v", chains, err)
		}
		if bare.Best != withCtx.Best || bare.BestEnergy != withCtx.BestEnergy ||
			bare.Iterations != withCtx.Iterations || bare.Evaluations != withCtx.Evaluations {
			t.Errorf("chains=%d: uncancelled ctx changed the run: %+v vs %+v", chains, bare, withCtx)
		}
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(quadCfg(ctx, 2, false, quadEnergy))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing ran, so the partial best is the initial state.
	if res.Best != 50 {
		t.Errorf("partial best = %v, want the initial state 50", res.Best)
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0", res.Iterations)
	}
}

// TestCancelMidFlight cancels from inside the energy function once every
// chain has made progress; the run must stop early, merge the partial bests,
// and return the context error.  Running under -race (make ci does) also
// pins that cancellation introduces no data race between the chains.
func TestCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	cfg := quadCfg(ctx, 4, false, func(x float64) float64 {
		if evals.Add(1) == 64 {
			cancel()
		}
		return quadEnergy(x)
	})
	res, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	full, err2 := Run(quadCfg(nil, 4, false, quadEnergy))
	if err2 != nil {
		t.Fatal(err2)
	}
	if res.Iterations >= full.Iterations {
		t.Errorf("cancelled run did %d iterations, full run %d — cancellation did not stop early", res.Iterations, full.Iterations)
	}
	// The partial best is still a real state with its true energy.
	if got := (res.Best - 3) * (res.Best - 3); got != res.BestEnergy {
		t.Errorf("partial BestEnergy %v does not match its state (energy %v)", res.BestEnergy, got)
	}
}
