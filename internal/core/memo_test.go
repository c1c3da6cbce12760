package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"greencloud/internal/energy"
	"greencloud/internal/location"
)

// sitingKey spells out a siting's ordered (site, capacity bits) list, the
// identity the chain memo keys on, independently of its encoding.
func sitingKey(s siting) string {
	var b strings.Builder
	for _, c := range s.candidates {
		fmt.Fprintf(&b, "%d:%016x;", c.SiteID, math.Float64bits(c.CapacityKW))
	}
	return b.String()
}

// freshEnergy prices a siting the way a chain does, on a brand-new
// evaluator with no cache and no memo.
func freshEnergy(t *testing.T, cat *location.Catalog, spec Spec, s siting) float64 {
	t.Helper()
	ev, err := NewEvaluator(cat, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluateCost(s.candidates)
	if err != nil || !res.Feasible {
		return math.Inf(1)
	}
	return res.MonthlyUSD
}

// TestChainMemoMatchesFreshEvaluation pins the chain memo: along a
// proposeMove trajectory that accepts moves at random, every energy a chain
// context returns — memo hit or miss — equals a fresh evaluation of that
// siting bit for bit (+Inf for an infeasible siting), for every storage mode
// at 0, 50 and 100 % green.  The test counts the repeated sitings itself
// and requires the memo to have served them: it must hold exactly one entry
// per distinct siting.
func TestChainMemoMatchesFreshEvaluation(t *testing.T) {
	cat := testCatalog(t, 40)
	var filtered []int
	for _, s := range cat.Sites() {
		filtered = append(filtered, s.ID)
	}
	const steps = 200
	for _, storage := range []energy.StorageMode{energy.NoStorage, energy.NetMetering, energy.Batteries} {
		for _, green := range []float64{0, 0.5, 1} {
			t.Run(fmt.Sprintf("%v-%v", storage, green), func(t *testing.T) {
				spec := smallSpec()
				spec.Storage = storage
				spec.MinGreenFraction = green
				spec = spec.withDefaults()
				minDCs, err := spec.MinDatacenters()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(cat, spec)
				if err != nil {
					t.Fatal(err)
				}
				chain := newChainContext(ev, steps+1)
				seen := make(map[string]bool)
				repeats := 0
				check := func(step int, s siting) {
					key := sitingKey(s)
					before := len(chain.memo)
					got := chain.energy(s)
					if seen[key] {
						repeats++
						if len(chain.memo) != before {
							t.Fatalf("step %d: repeated siting %s was priced again", step, key)
						}
					}
					seen[key] = true
					if want := freshEnergy(t, cat, spec, s); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: chain energy %v != fresh %v for %s", step, got, want, key)
					}
				}

				rng := rand.New(rand.NewSource(7))
				current := siting{candidates: []Candidate{
					{SiteID: filtered[0], CapacityKW: spec.TotalCapacityKW},
					{SiteID: filtered[1], CapacityKW: spec.TotalCapacityKW / 2},
					{SiteID: filtered[2], CapacityKW: spec.TotalCapacityKW / 2},
				}}
				check(-1, current)
				for step := 0; step < steps; step++ {
					next := proposeMove(current, rng, filtered, spec, minDCs, minDCs+6, spec.TotalCapacityKW/8)
					check(step, next)
					if rng.Intn(2) == 0 {
						current = next
					}
				}
				// The same set in the other order is a different siting.
				rev := current.clone()
				for i, j := 0, len(rev.candidates)-1; i < j; i, j = i+1, j-1 {
					rev.candidates[i], rev.candidates[j] = rev.candidates[j], rev.candidates[i]
				}
				check(steps, rev)

				if repeats == 0 {
					t.Fatal("trajectory repeated no siting, so the memo was never exercised")
				}
				if len(chain.memo) != len(seen) {
					t.Fatalf("memo holds %d sitings, want one per distinct siting (%d)", len(chain.memo), len(seen))
				}
				t.Logf("%d evaluations, %d repeats served by the memo", steps+2, repeats)
				if len(chain.memo) > steps+2 {
					t.Fatalf("memo holds %d sitings for %d evaluations", len(chain.memo), steps+2)
				}
			})
		}
	}
}

// TestSolveMemoParallelMatchesSequential runs Solve at the siting
// benchmark's budget (4 chains × 200 iterations), where the chains' memos
// serve most repeats: parallel and sequential chains must return the same
// solution bit for bit (run under -race in CI).
func TestSolveMemoParallelMatchesSequential(t *testing.T) {
	cat := testCatalog(t, 60)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	spec.Storage = energy.Batteries
	filtered, err := FilterSites(cat, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sequential bool) *Solution {
		sol, err := Solve(cat, spec, SolveOptions{
			Candidates:    filtered,
			Chains:        4,
			MaxIterations: 200,
			Seed:          1,
			Sequential:    sequential,
		})
		if err != nil {
			t.Fatalf("Solve(sequential=%v): %v", sequential, err)
		}
		return sol
	}
	parallel, sequential := run(false), run(true)
	if math.Float64bits(parallel.TotalMonthlyUSD) != math.Float64bits(sequential.TotalMonthlyUSD) ||
		len(parallel.Sites) != len(sequential.Sites) {
		t.Fatalf("parallel ($%v, %d sites) and sequential ($%v, %d sites) solutions differ",
			parallel.TotalMonthlyUSD, len(parallel.Sites), sequential.TotalMonthlyUSD, len(sequential.Sites))
	}
	for i := range parallel.Sites {
		p, s := parallel.Sites[i], sequential.Sites[i]
		if p.Site.ID != s.Site.ID || math.Float64bits(p.Provision.CapacityKW) != math.Float64bits(s.Provision.CapacityKW) {
			t.Fatalf("site %d: parallel %d @ %v kW, sequential %d @ %v kW",
				i, p.Site.ID, p.Provision.CapacityKW, s.Site.ID, s.Provision.CapacityKW)
		}
	}
}
