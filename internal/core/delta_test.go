package core

import (
	"math"
	"math/rand"
	"testing"

	"greencloud/internal/energy"
	"greencloud/internal/series"
)

// deltaSpecs are the spec variants the differential tests sweep: every
// storage mode, green targets from brown to fully green, and both the fast
// per-site path and the network top-up path get exercised.
func deltaSpecs() map[string]Spec {
	mk := func(green float64, storage energy.StorageMode, sources SourceMix) Spec {
		s := smallSpec()
		s.MinGreenFraction = green
		s.Storage = storage
		s.Sources = sources
		return s
	}
	return map[string]Spec{
		"brown":           mk(0, energy.NetMetering, SolarAndWind),
		"half-netmeter":   mk(0.5, energy.NetMetering, SolarAndWind),
		"half-nostorage":  mk(0.5, energy.NoStorage, SolarAndWind),
		"high-batteries":  mk(0.8, energy.Batteries, SolarAndWind),
		"full-netmeter":   mk(1.0, energy.NetMetering, WindOnly),
		"high-solar-only": mk(0.9, energy.NoStorage, SolarOnly),
	}
}

// TestDeltaEvaluationMatchesFull is the differential regression pinning the
// delta engine's correctness: over randomized single-site move sequences,
// the incremental evaluation (warm per-site cache, content validation) must
// be bit-identical to evaluating the same candidates from scratch.  Run under
// -race in CI, it also proves the evaluator's cache is free of shared state
// across the chains that own separate evaluators.
func TestDeltaEvaluationMatchesFull(t *testing.T) {
	cat := testCatalog(t, 40)
	var filtered []int
	for _, s := range cat.Sites() {
		filtered = append(filtered, s.ID)
	}

	const movesPerSpec = 250 // × len(deltaSpecs()) ≥ 1k moves in total
	for name, spec := range deltaSpecs() {
		t.Run(name, func(t *testing.T) {
			spec := spec.withDefaults()
			delta, err := NewEvaluator(cat, spec)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewEvaluator(cat, spec)
			if err != nil {
				t.Fatal(err)
			}
			minDCs, err := spec.MinDatacenters()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			current := siting{candidates: []Candidate{
				{SiteID: filtered[0], CapacityKW: spec.TotalCapacityKW},
				{SiteID: filtered[1], CapacityKW: spec.TotalCapacityKW / 2},
				{SiteID: filtered[2], CapacityKW: spec.TotalCapacityKW / 2},
			}}
			if _, err := delta.EvaluateCost(current.candidates); err != nil {
				t.Fatal(err)
			}

			for step := 0; step < movesPerSpec; step++ {
				next := proposeMove(current, rng, filtered, spec, minDCs, minDCs+6, spec.TotalCapacityKW/8)
				got, err := delta.EvaluateCost(next.candidates)
				if err != nil {
					t.Fatalf("step %d: delta: %v", step, err)
				}
				// The O(1) clean-site revalidation rides on the schedule-row
				// digests run computes after the merge.  Pin the digest
				// invariants the cache depends on: each rowDigest is coherent
				// with the row it summarizes, and after an evaluation every
				// current site's entry (reused or freshly stored) carries
				// exactly the current (capacity, digest) validation key.
				for i := 0; i < delta.n; i++ {
					if d := series.Digest(delta.compute.Row(i)); delta.rowDigest[i] != d {
						t.Fatalf("step %d: site slot %d digest %#x out of sync with schedule row (%#x)",
							step, i, delta.rowDigest[i], d)
					}
					ent := delta.cache[delta.sites[i].ID]
					if ent == nil {
						t.Fatalf("step %d: site %d has no cache entry after a delta evaluation", step, delta.sites[i].ID)
					}
					if ent.capacityKW != delta.capacities[i] || ent.digest != delta.rowDigest[i] {
						t.Fatalf("step %d: site %d cache key (cap %v, digest %#x) != current (cap %v, digest %#x)",
							step, delta.sites[i].ID, ent.capacityKW, ent.digest, delta.capacities[i], delta.rowDigest[i])
					}
				}
				// Reference: the same evaluator pipeline with every memoized
				// result invalidated, i.e. a full from-scratch evaluation.
				for _, ent := range full.cache {
					ent.capacityKW = math.Inf(-1)
				}
				want, err := full.EvaluateCost(next.candidates)
				if err != nil {
					t.Fatalf("step %d: full: %v", step, err)
				}
				if got != want {
					t.Fatalf("step %d (%+v): delta %+v != full %+v",
						step, next.candidates, got, want)
				}
				// Every 50th step, cross-check against a cold evaluator and
				// the full Solution path.
				if step%50 == 0 {
					cold, err := NewEvaluator(cat, spec)
					if err != nil {
						t.Fatal(err)
					}
					coldCost, err := cold.EvaluateCost(next.candidates)
					if err != nil {
						t.Fatal(err)
					}
					if coldCost != want {
						t.Fatalf("step %d: cold evaluator %+v != invalidated-cache full %+v",
							step, coldCost, want)
					}
					sol, err := cold.Evaluate(next.candidates)
					if err != nil {
						t.Fatal(err)
					}
					if sol.TotalMonthlyUSD != want.MonthlyUSD || sol.GreenFraction != want.GreenFraction ||
						sol.Feasible != want.Feasible {
						t.Fatalf("step %d: Evaluate (%v, %v, %v) disagrees with EvaluateCost %+v",
							step, sol.TotalMonthlyUSD, sol.GreenFraction, sol.Feasible, want)
					}
				}
				// Accept about half the moves so the walk explores both
				// accepted and rejected-trajectory cache states.
				if rng.Intn(2) == 0 {
					current = next
				}
			}
		})
	}
}

// TestDeltaMoveZeroAllocSteadyState pins the allocation contract of the
// delta path: once an evaluator has seen the sites a chain moves between,
// further delta evaluations (cache hits and changed-site recomputations
// alike) must not allocate.
func TestDeltaMoveZeroAllocSteadyState(t *testing.T) {
	spec := smallSpec()
	ev := newTestEvaluator(t, 40, spec)
	base := []Candidate{{SiteID: 2, CapacityKW: 5_000}, {SiteID: 5, CapacityKW: 5_000}}
	grown := []Candidate{{SiteID: 2, CapacityKW: 6_250}, {SiteID: 5, CapacityKW: 5_000}}
	swapped := []Candidate{{SiteID: 2, CapacityKW: 5_000}, {SiteID: 9, CapacityKW: 5_000}}

	// Warm up every site the moves touch.
	for _, cands := range [][]Candidate{base, grown, swapped} {
		if _, err := ev.EvaluateCost(cands); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, cands := range [][]Candidate{grown, base, swapped, base} {
			if _, err := ev.EvaluateCost(cands); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state delta moves allocate %v times per cycle, want 0", allocs)
	}
}

// TestProposeMoveNeverSilentlyNoOps regresses the fixed swap move: as long
// as the filtered list offers unselected sites, every proposed move must
// change the siting (the old swap silently kept the state when it sampled an
// already-selected replacement, wasting annealing iterations on
// re-evaluating an unchanged state).
func TestProposeMoveNeverSilentlyNoOps(t *testing.T) {
	spec := smallSpec().withDefaults()
	filtered := []int{0, 1, 2, 3, 4, 5, 6, 7}
	base := siting{candidates: []Candidate{
		{SiteID: 0, CapacityKW: 5_000},
		{SiteID: 1, CapacityKW: 5_000},
	}}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 1000; step++ {
		next := proposeMove(base, rng, filtered, spec, 2, 6, 1_250)
		if sitingsEqual(base, next) {
			t.Fatalf("step %d: move returned an unchanged siting", step)
		}
		if len(next.candidates) < 2 {
			t.Fatalf("step %d: move dropped below the availability floor: %+v", step, next.candidates)
		}
	}

	// Degenerate case: every filtered site already selected — swap and add
	// must fall through to a capacity move rather than no-op.
	tight := siting{candidates: []Candidate{
		{SiteID: 0, CapacityKW: 5_000},
		{SiteID: 1, CapacityKW: 5_000},
	}}
	for step := 0; step < 200; step++ {
		next := proposeMove(tight, rng, []int{0, 1}, spec, 2, 6, 1_250)
		if sitingsEqual(tight, next) {
			t.Fatalf("step %d: degenerate filtered list produced a no-op", step)
		}
	}
}

func sitingsEqual(a, b siting) bool {
	if len(a.candidates) != len(b.candidates) {
		return false
	}
	for i := range a.candidates {
		if a.candidates[i] != b.candidates[i] {
			return false
		}
	}
	return true
}

// TestSolveWarmStartDeterministic verifies that a warm-started Solve is
// reproducible and no worse than the same search without the warm start when
// the warm start is the cold search's own solution (it then seeds the chains
// with a known-good siting).
func TestSolveWarmStartDeterministic(t *testing.T) {
	cat := testCatalog(t, 60)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	filtered, err := FilterSites(cat, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Candidates: filtered, Chains: 2, MaxIterations: 25, Seed: 5}
	cold, err := Solve(cat, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmStart := make([]Candidate, 0, len(cold.Sites))
	for _, site := range cold.Sites {
		warmStart = append(warmStart, Candidate{SiteID: site.Site.ID, CapacityKW: site.Provision.CapacityKW})
	}
	opts.InitialCandidates = warmStart
	warm1, err := Solve(cat, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Solve(cat, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm1.TotalMonthlyUSD != warm2.TotalMonthlyUSD {
		t.Errorf("warm-started runs with the same seed differ: $%v vs $%v",
			warm1.TotalMonthlyUSD, warm2.TotalMonthlyUSD)
	}
	if warm1.TotalMonthlyUSD > cold.TotalMonthlyUSD+1e-6 {
		t.Errorf("warm start from the cold optimum (%v) should not end worse than the cold run (%v)",
			warm1.TotalMonthlyUSD, cold.TotalMonthlyUSD)
	}
}
