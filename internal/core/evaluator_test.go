package core

import (
	"math"
	"testing"
)

// newTestEvaluator builds an evaluator over the shared test catalog.
func newTestEvaluator(t *testing.T, count int, spec Spec) *Evaluator {
	t.Helper()
	cat := testCatalog(t, count)
	ev, err := NewEvaluator(cat, spec)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return ev
}

func TestEvaluatorMatchesEvaluate(t *testing.T) {
	// The cached evaluator and the one-shot Evaluate wrapper must price a
	// siting identically, and EvaluateCost must agree with the full path.
	cat := testCatalog(t, 40)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	cands := []Candidate{{SiteID: 2}, {SiteID: 5}}

	direct, err := Evaluate(cat, cands, spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(cat, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds: the second exercises the fully warmed scratch state.
	for round := 0; round < 2; round++ {
		full, err := ev.Evaluate(cands)
		if err != nil {
			t.Fatal(err)
		}
		if full.TotalMonthlyUSD != direct.TotalMonthlyUSD || full.Feasible != direct.Feasible ||
			full.GreenFraction != direct.GreenFraction {
			t.Fatalf("round %d: evaluator (%v, %v, %v) != Evaluate (%v, %v, %v)", round,
				full.TotalMonthlyUSD, full.GreenFraction, full.Feasible,
				direct.TotalMonthlyUSD, direct.GreenFraction, direct.Feasible)
		}
		cost, err := ev.EvaluateCost(cands)
		if err != nil {
			t.Fatal(err)
		}
		if cost.MonthlyUSD != full.TotalMonthlyUSD || cost.Feasible != full.Feasible ||
			cost.GreenFraction != full.GreenFraction {
			t.Fatalf("round %d: EvaluateCost %+v disagrees with Evaluate", round, cost)
		}
	}
}

func TestEvaluateCostZeroAllocSteadyState(t *testing.T) {
	// The zero-allocation contract of the annealing inner loop, enforced in
	// the regular test run (the benchmark enforces it by numbers).
	spec := smallSpec()
	ev := newTestEvaluator(t, 40, spec)
	cands := []Candidate{{SiteID: 2}, {SiteID: 5}, {SiteID: 9}}
	if _, err := ev.EvaluateCost(cands); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ev.EvaluateCost(cands); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state EvaluateCost allocates %v times per call, want 0", allocs)
	}

	// An infeasible siting must also stay allocation-free: the annealing
	// chains spend much of their time probing infeasible neighbours.
	infeasible := []Candidate{{SiteID: 2, CapacityKW: 100}, {SiteID: 5, CapacityKW: 100}}
	if res, err := ev.EvaluateCost(infeasible); err != nil || res.Feasible {
		t.Fatalf("expected a feasible=false summary, got %+v, %v", res, err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := ev.EvaluateCost(infeasible); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("infeasible EvaluateCost allocates %v times per call, want 0", allocs)
	}
}

func TestScheduleLoadSaturatesTightCapacity(t *testing.T) {
	// When the aggregate capacity exactly matches the requirement, every
	// site must run at its capacity in every epoch, whatever the green
	// availability ordering says.
	spec := smallSpec()
	ev := newTestEvaluator(t, 30, spec)
	cands := []Candidate{
		{SiteID: 0, CapacityKW: 7_500},
		{SiteID: 1, CapacityKW: 2_500},
	}
	if err := ev.prepare(cands); err != nil {
		t.Fatal(err)
	}
	ev.referencePlants()
	ev.scheduleLoad()
	E := ev.epochs
	for t2 := 0; t2 < E; t2++ {
		got0, got1 := ev.compute.Data()[t2], ev.compute.Data()[E+t2]
		if math.Abs(got0-7_500) > 1e-6 || math.Abs(got1-2_500) > 1e-6 {
			t.Fatalf("epoch %d: split (%v, %v), want (7500, 2500)", t2, got0, got1)
		}
	}
}

func TestScheduleLoadZeroCapacitySite(t *testing.T) {
	// A site with zero capacity must never receive load, in either the
	// green-following pass or the brown fallback pass.
	spec := smallSpec()
	ev := newTestEvaluator(t, 30, spec)
	cands := []Candidate{
		{SiteID: 0, CapacityKW: 10_000},
		{SiteID: 1, CapacityKW: 5_000},
	}
	if err := ev.prepare(cands); err != nil {
		t.Fatal(err)
	}
	// Zero out site 1's capacity after prepare (a Candidate with zero
	// capacity means "unspecified", so the zero-capacity case can only be
	// reached through the scheduler's own input).
	ev.capacities[1] = 0
	// Give the dead site reference plants so the green pass is tempted by it.
	ev.refSolar[0], ev.refSolar[1] = 0, 5_000
	ev.refWind[0], ev.refWind[1] = 0, 5_000
	ev.scheduleLoad()
	E := ev.epochs
	for t2 := 0; t2 < E; t2++ {
		if ev.compute.Data()[E+t2] != 0 {
			t.Fatalf("epoch %d: zero-capacity site was assigned %v kW", t2, ev.compute.Data()[E+t2])
		}
		if math.Abs(ev.compute.Data()[t2]-10_000) > 1e-6 {
			t.Fatalf("epoch %d: surviving site got %v kW, want the full 10000", t2, ev.compute.Data()[t2])
		}
	}
}

func TestScheduleLoadUnplaceableRemainder(t *testing.T) {
	// When total demand exceeds aggregate capacity, the remainder stays
	// unassigned (every site saturates at its capacity) and Evaluate
	// reports the capacity violation.
	spec := smallSpec() // 10 MW required
	ev := newTestEvaluator(t, 30, spec)
	cands := []Candidate{
		{SiteID: 0, CapacityKW: 3_000},
		{SiteID: 1, CapacityKW: 2_000},
	}
	if err := ev.prepare(cands); err != nil {
		t.Fatal(err)
	}
	ev.referencePlants()
	ev.scheduleLoad()
	E := ev.epochs
	for t2 := 0; t2 < E; t2++ {
		if ev.compute.Data()[t2] > 3_000+1e-6 || ev.compute.Data()[E+t2] > 2_000+1e-6 {
			t.Fatalf("epoch %d: a site exceeded its capacity (%v, %v)", t2, ev.compute.Data()[t2], ev.compute.Data()[E+t2])
		}
		assigned := ev.compute.Data()[t2] + ev.compute.Data()[E+t2]
		if math.Abs(assigned-5_000) > 1e-6 {
			t.Fatalf("epoch %d: assigned %v kW, want all 5000 kW of capacity saturated", t2, assigned)
		}
	}

	sol, err := ev.Evaluate(cands)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("a 5 MW network for a 10 MW requirement should be infeasible")
	}
	cost, err := ev.EvaluateCost(cands)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Feasible {
		t.Error("EvaluateCost must flag the unplaceable remainder as infeasible")
	}
}

func TestSolveDeterministicAcrossParallelChains(t *testing.T) {
	// The determinism regression for chain parallelization: a fixed seed
	// must produce an identical Solution whether the chains run on one
	// goroutine or several (run under -race in CI).
	cat := testCatalog(t, 60)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	filtered, err := FilterSites(cat, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sequential bool) *Solution {
		sol, err := Solve(cat, spec, SolveOptions{
			Candidates:    filtered,
			Chains:        4,
			MaxIterations: 30,
			Seed:          7,
			Sequential:    sequential,
		})
		if err != nil {
			t.Fatalf("Solve(sequential=%v): %v", sequential, err)
		}
		return sol
	}
	parallel := run(false)
	parallelAgain := run(false)
	sequential := run(true)

	same := func(a, b *Solution) bool {
		if a.TotalMonthlyUSD != b.TotalMonthlyUSD || a.Feasible != b.Feasible || len(a.Sites) != len(b.Sites) {
			return false
		}
		for i := range a.Sites {
			if a.Sites[i].Site.ID != b.Sites[i].Site.ID ||
				a.Sites[i].Provision.CapacityKW != b.Sites[i].Provision.CapacityKW {
				return false
			}
		}
		return true
	}
	if !same(parallel, parallelAgain) {
		t.Errorf("two parallel runs with the same seed differ: $%v vs $%v",
			parallel.TotalMonthlyUSD, parallelAgain.TotalMonthlyUSD)
	}
	if !same(parallel, sequential) {
		t.Errorf("parallel ($%v, %d sites) and sequential ($%v, %d sites) solutions differ",
			parallel.TotalMonthlyUSD, len(parallel.Sites),
			sequential.TotalMonthlyUSD, len(sequential.Sites))
	}
}

// TestEvaluatorOverSubsetMatchesFullCatalog pins the evaluator's per-catalog
// indexing: its static caches are indexed by a site's position in the
// catalog, which differs between a catalog and its Subset.  The same siting
// must price bit for bit alike on both, for every spec variant, with
// subset IDs out of order and not 0..n−1.
func TestEvaluatorOverSubsetMatchesFullCatalog(t *testing.T) {
	cat := testCatalog(t, 40)
	ids := []int{31, 4, 17, 38, 9, 22}
	sub, err := cat.Subset(ids)
	if err != nil {
		t.Fatal(err)
	}
	sitings := [][]Candidate{
		{{SiteID: 38}, {SiteID: 4}},
		{{SiteID: 22}, {SiteID: 31}, {SiteID: 9}},
		{{SiteID: 17, CapacityKW: 6000}, {SiteID: 4, CapacityKW: 5000}},
	}
	for name, spec := range deltaSpecs() {
		full, err := NewEvaluator(cat, spec)
		if err != nil {
			t.Fatal(err)
		}
		part, err := NewEvaluator(sub, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, cands := range sitings {
			want, err := full.EvaluateCost(cands)
			if err != nil {
				t.Fatal(err)
			}
			got, err := part.EvaluateCost(cands)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.MonthlyUSD) != math.Float64bits(want.MonthlyUSD) ||
				math.Float64bits(got.GreenFraction) != math.Float64bits(want.GreenFraction) ||
				got.Feasible != want.Feasible {
				t.Errorf("%s %v: subset %+v, full catalog %+v", name, cands, got, want)
			}
		}
	}
	ev, err := NewEvaluator(sub, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvaluateCost([]Candidate{{SiteID: 5}, {SiteID: 9}}); err == nil {
		t.Error("a site outside the subset should be rejected")
	}
}
