package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"greencloud/internal/anneal"
	"greencloud/internal/location"
)

// SolveOptions tunes the heuristic solver.
type SolveOptions struct {
	// Candidates, when non-empty, is a pre-filtered list of site IDs to
	// search over; the filtering stage is skipped.  Sweeps that call Solve
	// many times on the same catalog filter once and reuse the list.
	Candidates []int
	// InitialCandidates, when non-empty, is a warm-start siting: it is
	// offered as an additional starting point to the annealing chains, which
	// adopt it when it prices better than the built-in initial sitings.
	// Sweeps use it to seed each green-fraction point with the previous
	// point's solution.  The search stays deterministic for a fixed seed.
	InitialCandidates []Candidate
	// FilterKeep is how many candidate locations survive the filtering
	// stage (the paper keeps 50–100 of its 1373); default 60.
	FilterKeep int
	// Chains is the number of parallel annealing instances; default 4.
	Chains int
	// MaxIterations caps the iterations per chain; default 250.
	MaxIterations int
	// Seed makes the search reproducible.
	Seed int64
	// Sequential runs the annealing chains one after another instead of
	// in parallel.  The solution is identical either way (chains are
	// independent and merged deterministically); the switch exists so the
	// determinism regression tests can verify exactly that.
	Sequential bool
	// Ctx, when non-nil, cancels the annealing search cooperatively.  A run
	// cancelled mid-search returns the best solution found so far together
	// with the context's error (or the error alone when nothing feasible
	// was reached); an uncancelled run is bit-identical to one without Ctx.
	Ctx context.Context
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.FilterKeep <= 0 {
		o.FilterKeep = 60
	}
	if o.Chains <= 0 {
		o.Chains = 4
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 250
	}
	return o
}

// FilterSites implements the first stage of the heuristic solver: it prices a
// representative single datacenter at every location (for the spec's source
// and storage settings, and for a plain brown datacenter) and keeps the
// `keep` cheapest locations, always including the very best wind and solar
// sites so the annealing stage can exploit them.
//
// The catalog is sharded across a GOMAXPROCS-sized worker pool; each worker
// owns its pair of evaluators, forked from one brown and one green
// evaluator built here so the per-catalog tables are computed once, and
// every site writes its score into its own slot, so the result is identical
// to pricing the catalog sequentially.
func FilterSites(cat *location.Catalog, spec Spec, keep int) ([]int, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cat.Len() == 0 {
		return nil, ErrNoSites
	}
	if keep <= 0 {
		keep = 60
	}
	if keep > cat.Len() {
		keep = cat.Len()
	}
	minDCs, err := spec.MinDatacenters()
	if err != nil {
		return nil, err
	}
	refCapacity := spec.TotalCapacityKW / float64(minDCs)

	brownSpec := spec
	brownSpec.MinGreenFraction = 0
	sites := cat.Sites()
	scores := make([]float64, len(sites))
	brownBase, err := NewEvaluator(cat, singleSiteSpec(brownSpec, refCapacity))
	if err != nil {
		return nil, fmt.Errorf("core: filter: %w", err)
	}
	var greenBase *Evaluator
	if spec.MinGreenFraction > 0 {
		if greenBase, err = NewEvaluator(cat, singleSiteSpec(spec, refCapacity)); err != nil {
			return nil, fmt.Errorf("core: filter: %w", err)
		}
	}

	// scoreRange prices its share of the catalog with its own reusable
	// evaluators: pricing every location is the filter's hot loop, and a
	// warm single-site evaluator makes each probe allocation-free.
	scoreRange := func(nextIdx *atomic.Int64) error {
		brownEval := brownBase.fork()
		var greenEval *Evaluator
		if greenBase != nil {
			greenEval = greenBase.fork()
		}
		probe := make([]Candidate, 1)
		for {
			i := int(nextIdx.Add(1))
			if i >= len(sites) {
				return nil
			}
			probe[0] = Candidate{SiteID: sites[i].ID, CapacityKW: refCapacity}
			brown, err := brownEval.EvaluateCost(probe)
			if err != nil {
				return fmt.Errorf("core: filter: %w", err)
			}
			score := brown.MonthlyUSD
			if greenEval != nil {
				green, err := greenEval.EvaluateCost(probe)
				if err != nil {
					return fmt.Errorf("core: filter: %w", err)
				}
				// A site that cannot reach the green target alone is still
				// useful in a network, so only use its cost as the score.
				score = math.Min(score, green.MonthlyUSD)
				if green.Feasible {
					score = green.MonthlyUSD
				}
			}
			scores[i] = score
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(sites) {
		workers = len(sites)
	}
	var next atomic.Int64
	next.Store(-1)
	if workers <= 1 {
		if err := scoreRange(&next); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = scoreRange(&next)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })

	selected := make([]int, 0, keep+20)
	seen := make(map[int]bool, keep+20)
	for _, i := range order {
		if len(selected) >= keep {
			break
		}
		selected = append(selected, sites[i].ID)
		seen[sites[i].ID] = true
	}
	// Always keep the very best renewable sites: they anchor the green
	// solutions even if their brown cost is mediocre.
	for _, s := range cat.TopByWindCF(10) {
		if !seen[s.ID] {
			selected = append(selected, s.ID)
			seen[s.ID] = true
		}
	}
	for _, s := range cat.TopBySolarCF(10) {
		if !seen[s.ID] {
			selected = append(selected, s.ID)
			seen[s.ID] = true
		}
	}
	return selected, nil
}

// siting is the annealing state: a set of candidate sites with capacities.
type siting struct {
	candidates []Candidate
}

func (s siting) clone() siting {
	out := make([]Candidate, len(s.candidates))
	copy(out, s.candidates)
	return siting{candidates: out}
}

// chainContext is one annealing chain's evaluation state: its own forked
// Evaluator and a memo from every siting the chain has priced to its
// energy, so the chain prices each distinct siting once.  The key is the
// ordered (SiteID, CapacityKW bits) list, compared in full: candidate order
// feeds the merge's stable sorts and the evaluator's float sums, so it stays
// in the key.  Energy is a pure function of that list, so a hit returns the
// bits a fresh evaluation would (doc.go, "Chain memo").  A chain evaluates
// at most MaxIterations+1 sitings.
type chainContext struct {
	ev   *Evaluator
	memo map[string]float64
	key  []byte // scratch for the lookup key
}

func newChainContext(ev *Evaluator, sitings int) *chainContext {
	return &chainContext{ev: ev, memo: make(map[string]float64, sitings)}
}

// energy returns the siting's monthly cost, or +Inf when it is infeasible
// or cannot be priced.
func (c *chainContext) energy(s siting) float64 {
	c.key = c.key[:0]
	for _, cand := range s.candidates {
		c.key = binary.LittleEndian.AppendUint64(c.key, uint64(cand.SiteID))
		c.key = binary.LittleEndian.AppendUint64(c.key, math.Float64bits(cand.CapacityKW))
	}
	if e, ok := c.memo[string(c.key)]; ok {
		return e
	}
	e := math.Inf(1)
	if res, err := c.ev.EvaluateCost(s.candidates); err == nil && res.Feasible {
		e = res.MonthlyUSD
	}
	c.memo[string(c.key)] = e
	return e
}

// proposeMove draws one neighbourhood move: swap a site, add or remove one,
// or resize one site's capacity, and returns the modified copy.
//
// Moves that would silently do nothing (a swap or add whose sampled site is
// already selected, a shrink below the survivable share, a removal at the
// availability floor) resample or fall through to a capacity-grow move, so
// annealing chains never burn an iteration re-evaluating an unchanged state.
func proposeMove(s siting, rng *rand.Rand, filtered []int, spec Spec,
	minDCs, maxDCs int, quantum float64) siting {

	out := s.clone()
	cands := out.candidates
	grow := func() siting {
		cands[rng.Intn(len(cands))].CapacityKW += quantum
		out.candidates = cands
		return out
	}
	if len(cands) == 0 {
		return out
	}

	switch rng.Intn(5) {
	case 0: // swap a site for an unselected filtered site
		if len(cands) < len(filtered) {
			i := rng.Intn(len(cands))
			for tries := 0; tries < 8; tries++ {
				replacement := filtered[rng.Intn(len(filtered))]
				if sitingContains(cands, replacement) {
					continue
				}
				cands[i].SiteID = replacement
				out.candidates = cands
				return out
			}
		}
	case 1: // add a site
		if len(cands) < maxDCs && len(cands) < len(filtered) {
			for tries := 0; tries < 8; tries++ {
				id := filtered[rng.Intn(len(filtered))]
				if sitingContains(cands, id) {
					continue
				}
				share := spec.TotalCapacityKW / float64(len(cands)+1)
				cands = append(cands, Candidate{SiteID: id, CapacityKW: share})
				// Rebalance to keep every site at the survivable share.
				rebalance(cands, spec)
				out.candidates = cands
				return out
			}
		}
	case 2: // remove a site
		if len(cands) > minDCs {
			i := rng.Intn(len(cands))
			cands = append(cands[:i], cands[i+1:]...)
			rebalance(cands, spec)
			out.candidates = cands
			return out
		}
	case 3:
		return grow()
	case 4: // shrink one site's capacity (not below the survivable share)
		i := rng.Intn(len(cands))
		minShare := spec.TotalCapacityKW / float64(len(cands))
		if cands[i].CapacityKW-quantum >= minShare-1e-9 {
			cands[i].CapacityKW -= quantum
			out.candidates = cands
			return out
		}
	}
	// The sampled move was impossible (sites exhausted, at the availability
	// floor, at the survivable share): fall through to a grow move, which is
	// always applicable.
	return grow()
}

// Solve runs the heuristic solver: filter locations, then search over
// sitings and capacity splits with parallel simulated annealing, and return
// the best feasible solution found.  Each chain owns a chainContext: its own
// Evaluator and a memo that prices each distinct siting once.  A memo hit
// returns the bits a fresh evaluation would, so results remain reproducible
// for a fixed seed regardless of parallelism.
func Solve(cat *location.Catalog, spec Spec, opts SolveOptions) (*Solution, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	filtered := opts.Candidates
	if len(filtered) == 0 {
		var err error
		filtered, err = FilterSites(cat, spec, opts.FilterKeep)
		if err != nil {
			return nil, err
		}
	}
	minDCs, err := spec.MinDatacenters()
	if err != nil {
		return nil, err
	}
	if len(filtered) < minDCs {
		return nil, fmt.Errorf("%w: only %d candidate sites for %d required datacenters",
			ErrInfeasible, len(filtered), minDCs)
	}

	// The shared evaluator serves the single-threaded phases (initial-siting
	// selection and the top-level initial energy, which share one memo, and
	// the final materialization); each annealing chain owns a fork of it,
	// sharing its per-catalog tables.
	shared, err := NewEvaluator(cat, spec)
	if err != nil {
		return nil, err
	}
	top := newChainContext(shared, 0)
	initial := buildInitialSiting(cat, filtered, minDCs, spec, opts.InitialCandidates, top.energy)

	maxDCs := minDCs + 12
	// Capacity-changing moves step by an eighth of the network's capacity.
	quantum := spec.TotalCapacityKW / 8

	result, runErr := anneal.Run(anneal.Config[siting]{
		Initial: initial,
		NewContext: func(chain int) any {
			if chain < 0 {
				// The top-level initial evaluation runs before any chain
				// starts; buildInitialSiting has already priced it.
				return top
			}
			return newChainContext(shared.fork(), opts.MaxIterations+1)
		},
		NeighborMove: func(s siting, rng *rand.Rand) siting {
			return proposeMove(s, rng, filtered, spec, minDCs, maxDCs, quantum)
		},
		EnergyMove: func(ctx any, s siting) float64 {
			return ctx.(*chainContext).energy(s)
		},
		MaxIterations: opts.MaxIterations,
		MaxStale:      opts.MaxIterations / 2,
		Chains:        opts.Chains,
		Seed:          opts.Seed,
		Sequential:    opts.Sequential,
		Ctx:           opts.Ctx,
	})
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return nil, fmt.Errorf("core: anneal: %w", runErr)
	}
	if math.IsInf(result.BestEnergy, 1) {
		if runErr != nil {
			// Cancelled before anything feasible was found.
			return nil, fmt.Errorf("core: anneal: %w", runErr)
		}
		return nil, ErrInfeasible
	}
	best, err := shared.Evaluate(result.Best.candidates)
	if err != nil {
		return nil, err
	}
	// On cancellation the best-so-far solution is returned together with the
	// context's error so the caller can decide whether a partial search
	// result is acceptable.
	return best, runErr
}

// buildInitialSiting tries a few natural starting points — plus the caller's
// warm-start siting, when given — and returns the one with the lowest
// energy, preferring feasible states so the annealing chains start from
// somewhere useful.
func buildInitialSiting(cat *location.Catalog, filtered []int, minDCs int, spec Spec,
	warmStart []Candidate, energyOf func(siting) float64) siting {

	share := spec.TotalCapacityKW / float64(minDCs)
	cheapest := make([]Candidate, 0, minDCs)
	for i := 0; i < minDCs && i < len(filtered); i++ {
		cheapest = append(cheapest, Candidate{SiteID: filtered[i], CapacityKW: share})
	}
	options := []siting{{candidates: cheapest}}

	// Full replication at each of the cheapest sites: the natural start for
	// high green fractions without storage.
	full := make([]Candidate, 0, minDCs)
	for i := 0; i < minDCs && i < len(filtered); i++ {
		full = append(full, Candidate{SiteID: filtered[i], CapacityKW: spec.TotalCapacityKW})
	}
	options = append(options, siting{candidates: full})

	// Three sites spread across time zones with full capacity each: the
	// shape of the paper's no-storage solutions.
	if len(filtered) >= 3 {
		sites := make([]*location.Site, 0, len(filtered))
		for _, id := range filtered {
			if site, err := cat.Site(id); err == nil {
				sites = append(sites, site)
			}
		}
		spread := location.SpreadAcrossTimeZones(sites, 3)
		cands := make([]Candidate, 0, len(spread))
		for _, site := range spread {
			cands = append(cands, Candidate{SiteID: site.ID, CapacityKW: spec.TotalCapacityKW})
		}
		if len(cands) >= minDCs {
			options = append(options, siting{candidates: cands})
		}
	}

	// The warm start (typically the adjacent sweep point's solution) goes
	// last so it wins ties against the built-in options only when strictly
	// better.
	if len(warmStart) > 0 {
		cands := make([]Candidate, len(warmStart))
		copy(cands, warmStart)
		options = append(options, siting{candidates: cands})
	}

	best := options[0]
	bestEnergy := math.Inf(1)
	for _, opt := range options {
		if e := energyOf(opt); e < bestEnergy {
			bestEnergy = e
			best = opt
		}
	}
	return best
}

func sitingContains(cands []Candidate, id int) bool {
	for _, c := range cands {
		if c.SiteID == id {
			return true
		}
	}
	return false
}

// rebalance resets all capacities to the equal survivable share after a
// site-count change.
func rebalance(cands []Candidate, spec Spec) {
	if len(cands) == 0 {
		return
	}
	share := spec.TotalCapacityKW / float64(len(cands))
	for i := range cands {
		if cands[i].CapacityKW < share {
			cands[i].CapacityKW = share
		}
	}
}
