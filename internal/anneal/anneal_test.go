package anneal

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// plain builds a Config from a state-only energy and neighbour pair: the
// hooks ignore their chain context.
func plain[S any](cfg Config[S], energy func(S) float64, neighbor func(S, *rand.Rand) S) Config[S] {
	cfg.NewContext = func(int) any { return nil }
	cfg.NeighborMove = neighbor
	cfg.EnergyMove = func(_ any, s S) float64 { return energy(s) }
	return cfg
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config[int]{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
	cfg := plain(Config[int]{}, func(int) float64 { return 0 }, func(s int, _ *rand.Rand) int { return s })
	cfg.NeighborMove = nil
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing NeighborMove should error, got %v", err)
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	// Minimize (x-3)² over integers: optimum at x=3.
	cfg := plain(Config[float64]{
		Initial:       50,
		MaxIterations: 5000,
		MaxStale:      5000,
		Seed:          1,
	}, func(x float64) float64 { return (x - 3) * (x - 3) }, func(x float64, rng *rand.Rand) float64 {
		return x + rng.NormFloat64()*2
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best-3) > 0.5 {
		t.Errorf("best = %v, want ≈3", res.Best)
	}
	if res.BestEnergy > 0.3 {
		t.Errorf("best energy = %v, want ≈0", res.BestEnergy)
	}
	if res.Iterations == 0 || res.Evaluations == 0 {
		t.Error("iteration/evaluation counters not reported")
	}
}

func TestDiscreteSubsetSelection(t *testing.T) {
	// Pick a subset of 10 items minimizing |sum - 37|; items are 1..10, and
	// 37 is reachable (e.g. 10+9+8+7+3), so the optimum is 0.
	type state []bool
	items := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	energy := func(s state) float64 {
		sum := 0.0
		for i, pick := range s {
			if pick {
				sum += items[i]
			}
		}
		return math.Abs(sum - 37)
	}
	neighbor := func(s state, rng *rand.Rand) state {
		out := make(state, len(s))
		copy(out, s)
		out[rng.Intn(len(out))] = !out[rng.Intn(len(out))]
		i := rng.Intn(len(out))
		out[i] = !out[i]
		return out
	}
	res, err := Run(plain(Config[state]{
		Initial:       make(state, len(items)),
		MaxIterations: 4000,
		MaxStale:      2000,
		Chains:        3,
		Seed:          7,
	}, energy, neighbor))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy > 1e-9 {
		t.Errorf("best energy = %v, want 0", res.BestEnergy)
	}
}

func TestInfeasibleStatesAreNeverAccepted(t *testing.T) {
	// States above 100 are infeasible (infinite energy).  Starting at 90 and
	// proposing +5 moves, the chain must never adopt an infeasible state as
	// its best.
	res, err := Run(plain(Config[float64]{
		Initial:       90,
		MaxIterations: 200,
		Seed:          3,
	}, func(x float64) float64 {
		if x > 100 {
			return math.Inf(1)
		}
		return -x // prefer larger x, capped at 100
	}, func(x float64, rng *rand.Rand) float64 {
		return x + 5
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best > 100 {
		t.Errorf("best state %v is infeasible", res.Best)
	}
	if math.Abs(res.Best-100) > 1e-9 {
		t.Errorf("best = %v, want 100", res.Best)
	}
}

func TestParallelChainsImproveOverSingle(t *testing.T) {
	// A rugged 1-D landscape with many local minima; the global optimum is
	// at x = 0.  Multiple chains with different seeds should find a
	// solution at least as good as a single chain.
	energy := func(x float64) float64 {
		return 0.1*x*x + 5*math.Abs(math.Sin(x))
	}
	neighbor := func(x float64, rng *rand.Rand) float64 {
		return x + rng.NormFloat64()*3
	}
	single, err := Run(plain(Config[float64]{
		Initial: 40, MaxIterations: 800, Seed: 11, Chains: 1,
	}, energy, neighbor))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(plain(Config[float64]{
		Initial: 40, MaxIterations: 800, Seed: 11, Chains: 4,
	}, energy, neighbor))
	if err != nil {
		t.Fatal(err)
	}
	if multi.BestEnergy > single.BestEnergy+1e-9 {
		t.Errorf("4 chains (%v) should not be worse than 1 chain (%v)",
			multi.BestEnergy, single.BestEnergy)
	}
}

func TestDeterministicForFixedSeedSingleChain(t *testing.T) {
	cfg := plain(Config[float64]{
		Initial:       10,
		MaxIterations: 500,
		Seed:          5,
		Chains:        1,
	}, func(x float64) float64 { return math.Abs(x - 2) }, func(x float64, rng *rand.Rand) float64 {
		return x + rng.NormFloat64()
	})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestEnergy != b.BestEnergy || a.Iterations != b.Iterations {
		t.Errorf("single-chain runs with the same seed differ: %v vs %v", a, b)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// Chains are independent and merged deterministically, so running them
	// on one goroutine or many must give bit-identical results.
	cfg := plain(Config[float64]{
		Initial:       40,
		MaxIterations: 600,
		Seed:          13,
		Chains:        4,
	}, func(x float64) float64 {
		return 0.1*x*x + 5*math.Abs(math.Sin(x))
	}, func(x float64, rng *rand.Rand) float64 {
		return x + rng.NormFloat64()*3
	})
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sequential = true
	sequential, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Best != sequential.Best || parallel.BestEnergy != sequential.BestEnergy ||
		parallel.Iterations != sequential.Iterations || parallel.Evaluations != sequential.Evaluations {
		t.Errorf("parallel %+v and sequential %+v runs differ", parallel, sequential)
	}
}

func TestMoveAwareHooksRequireAllThree(t *testing.T) {
	energy := func(ctx any, x float64) float64 { return x * x }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x - 1 }
	newCtx := func(chain int) any { return nil }
	cases := []Config[float64]{
		{EnergyMove: energy},
		{EnergyMove: energy, NeighborMove: neighbor},
		{NeighborMove: neighbor, NewContext: newCtx},
		{NewContext: newCtx},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig for partial hooks, got %v", i, err)
		}
	}
}

func TestMoveAwareParallelMatchesSequential(t *testing.T) {
	// The per-chain contexts must keep the determinism contract: parallel
	// and sequential runs are bit-identical, and the chain context is
	// delivered to every EnergyMove call.
	type ctxState struct {
		chain int
		calls int
	}
	run := func(sequential bool) Result[float64] {
		cfg := Config[float64]{
			Initial: 40,
			NewContext: func(chain int) any {
				return &ctxState{chain: chain}
			},
			NeighborMove: func(x float64, rng *rand.Rand) float64 {
				return x + rng.NormFloat64()*3
			},
			EnergyMove: func(ctx any, x float64) float64 {
				st, ok := ctx.(*ctxState)
				if !ok {
					t.Fatal("EnergyMove did not receive its chain context")
				}
				st.calls++
				return 0.1*x*x + 5*math.Abs(math.Sin(x))
			},
			MaxIterations: 600,
			Seed:          13,
			Chains:        4,
			Sequential:    sequential,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	parallel := run(false)
	sequential := run(true)
	if parallel.Best != sequential.Best || parallel.BestEnergy != sequential.BestEnergy ||
		parallel.Iterations != sequential.Iterations || parallel.Evaluations != sequential.Evaluations {
		t.Errorf("context-carrying parallel %+v and sequential %+v runs differ", parallel, sequential)
	}
	if parallel.BestEnergy > 5 {
		t.Errorf("context-carrying search did not optimize: best energy %v", parallel.BestEnergy)
	}
}

func TestStaleStopBoundsEvaluations(t *testing.T) {
	// An energy function that never improves: the chain must stop after
	// MaxStale iterations, not run to MaxIterations.
	var calls int64
	res, err := Run(plain(Config[int]{
		Initial:       0,
		MaxIterations: 100000,
		MaxStale:      50,
		Chains:        1,
		Seed:          2,
	}, func(int) float64 {
		atomic.AddInt64(&calls, 1)
		return 1
	}, func(s int, rng *rand.Rand) int { return s }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 60 {
		t.Errorf("chain ran %d iterations, want ≈50 (stale stop)", res.Iterations)
	}
	if atomic.LoadInt64(&calls) > 70 {
		t.Errorf("energy called %d times, want ≈52", calls)
	}
}
