// Package anneal provides a generic simulated-annealing search with parallel
// search instances, following the heuristic solver described in Section II-C
// of the paper: several annealing chains explore siting/provisioning
// neighbourhoods on multiple cores.
//
// Chains are fully independent: each runs on its own goroutine with a
// deterministic per-chain RNG seed, and the results are merged with a
// deterministic best-of rule (lowest energy wins, ties go to the lowest
// chain index).  Because no state is exchanged mid-run, the outcome of Run
// is bit-identical for a fixed Seed regardless of how the goroutines are
// scheduled — and identical to running the chains sequentially (Sequential).
package anneal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
)

// Config describes one annealing run over states of type S, searched with
// delta-evaluating hooks: NeighborMove proposes a modified copy of a state
// together with metadata describing the move it applied, and EnergyMove
// evaluates a state given that metadata and a chain-local context
// (typically a reusable incremental evaluator) created once per chain by
// NewContext.  EnergyMove must be a pure function of the state — the
// context and metadata may only accelerate it, never change its value — so
// results remain bit-identical regardless of parallelism or cache state.
//
// When Chains > 1, NeighborMove and EnergyMove are called concurrently from
// multiple goroutines (each with its own chain context).
type Config[S any] struct {
	// Initial is the starting state for every chain.
	Initial S
	// NewContext creates the evaluation context of one chain (chain -1
	// evaluates the initial state once before the chains start).
	NewContext func(chain int) any
	// NeighborMove proposes a modified copy of the state using the chain's
	// RNG and must not mutate its argument.
	NeighborMove func(S, *rand.Rand) (S, any)
	// EnergyMove evaluates a state using the chain's context; lower is
	// better and infinite energy marks an infeasible state.  move is the
	// metadata from NeighborMove, or nil when evaluating the initial state.
	EnergyMove func(ctx any, s S, move any) float64

	// MaxIterations caps the iterations per chain (default 2000).
	MaxIterations int
	// MaxStale stops a chain after this many consecutive iterations
	// without improving its own best (default 300).
	MaxStale int

	// Chains is the number of parallel search instances (default 1).
	Chains int
	// Seed makes the run reproducible.
	Seed int64
	// Sequential runs the chains one after another on the calling
	// goroutine instead of in parallel.  The result is identical either
	// way; the switch exists so tests can verify exactly that.
	Sequential bool
	// Ctx, when non-nil, cancels the run cooperatively: every chain checks
	// it once per iteration (before consuming any randomness, so an
	// uncancelled run with a Ctx is bit-identical to one without) and stops
	// early when it is done.  Run then merges whatever the chains found so
	// far and returns it together with the context's error.
	Ctx context.Context
}

// Result is the outcome of an annealing run.
type Result[S any] struct {
	// Best is the best state found across all chains.
	Best S
	// BestEnergy is its energy.
	BestEnergy float64
	// Iterations is the total number of iterations across chains.
	Iterations int
	// Evaluations is the total number of Energy calls.
	Evaluations int
}

// ErrBadConfig reports a configuration that cannot be run.
var ErrBadConfig = errors.New("anneal: NewContext, NeighborMove and EnergyMove are required")

// The cooling schedule: geometric cooling by coolingRate per iteration from
// an initial temperature of 5% of the initial energy (at least 1), until the
// temperature falls below minTempRatio of where it started.
const (
	coolingRate  = 0.995
	minTempRatio = 1e-6
)

func (c Config[S]) withDefaults() Config[S] {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 2000
	}
	if c.MaxStale <= 0 {
		c.MaxStale = 300
	}
	if c.Chains <= 0 {
		c.Chains = 1
	}
	return c
}

// chainResult is the outcome of one independent chain.
type chainResult[S any] struct {
	best        S
	bestEnergy  float64
	iterations  int
	evaluations int
}

// Run executes the annealing search and returns the best state found.
func Run[S any](cfg Config[S]) (Result[S], error) {
	var zero Result[S]
	if cfg.EnergyMove == nil || cfg.NeighborMove == nil || cfg.NewContext == nil {
		return zero, ErrBadConfig
	}
	cfg = cfg.withDefaults()

	initialEnergy := cfg.EnergyMove(cfg.NewContext(-1), cfg.Initial, nil)
	initialTemp := math.Max(1, math.Abs(initialEnergy)*0.05)
	minTemp := initialTemp * minTempRatio

	runChain := func(chainID int) chainResult[S] {
		rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(chainID)*15485863 + 1))
		// Each chain owns its context: consecutive evaluations on one chain
		// share one incremental evaluator, which is what makes delta
		// evaluation effective (the chain's trajectory keeps the per-site
		// cache warm).  EnergyMove is a pure function of the state, so chains
		// stay independent and the merged result deterministic.
		ctx := cfg.NewContext(chainID)
		current := cfg.Initial
		currentEnergy := initialEnergy
		best := cfg.Initial
		bestEnergy := currentEnergy
		temp := initialTemp
		stale := 0
		iters := 0
		evals := 0
		// Seed the chain's context with the initial state so the first
		// neighbour evaluation is already a delta.
		if got := cfg.EnergyMove(ctx, current, nil); got != currentEnergy {
			// EnergyMove violated purity; trust the fresh value so the
			// chain is at least self-consistent.
			currentEnergy, bestEnergy = got, got
		}
		evals++

		for iters < cfg.MaxIterations && stale < cfg.MaxStale && temp > minTemp {
			if cfg.Ctx != nil {
				// Checked before any RNG draw so cancellation can never
				// perturb the trajectory of a run that finishes normally.
				select {
				case <-cfg.Ctx.Done():
					return chainResult[S]{best: best, bestEnergy: bestEnergy, iterations: iters, evaluations: evals}
				default:
				}
			}
			iters++
			candidate, move := cfg.NeighborMove(current, rng)
			candEnergy := cfg.EnergyMove(ctx, candidate, move)
			evals++

			accept := false
			switch {
			case math.IsInf(candEnergy, 1):
				accept = false
			case candEnergy <= currentEnergy:
				accept = true
			default:
				delta := candEnergy - currentEnergy
				accept = rng.Float64() < math.Exp(-delta/temp)
			}
			if accept {
				current = candidate
				currentEnergy = candEnergy
				if candEnergy < bestEnergy {
					best = candidate
					bestEnergy = candEnergy
					stale = 0
				} else {
					stale++
				}
			} else {
				stale++
			}
			temp *= coolingRate
		}
		return chainResult[S]{best: best, bestEnergy: bestEnergy, iterations: iters, evaluations: evals}
	}

	results := make([]chainResult[S], cfg.Chains)
	if cfg.Sequential || cfg.Chains == 1 {
		for chain := 0; chain < cfg.Chains; chain++ {
			results[chain] = runChain(chain)
		}
	} else {
		var wg sync.WaitGroup
		for chain := 0; chain < cfg.Chains; chain++ {
			wg.Add(1)
			go func(chainID int) {
				defer wg.Done()
				results[chainID] = runChain(chainID)
			}(chain)
		}
		wg.Wait()
	}

	// Deterministic best-of merge: strictly lower energy wins, so ties keep
	// the lowest chain index and the outcome never depends on scheduling.
	res := Result[S]{Best: cfg.Initial, BestEnergy: initialEnergy, Evaluations: 1}
	for _, r := range results {
		if r.bestEnergy < res.BestEnergy {
			res.Best = r.best
			res.BestEnergy = r.bestEnergy
		}
		res.Iterations += r.iterations
		res.Evaluations += r.evaluations
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			// Cancelled mid-run: hand back the partial best alongside the
			// context error so the caller can decide whether it is usable.
			return res, err
		}
	}
	return res, nil
}
