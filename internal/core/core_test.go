package core

import (
	"errors"
	"math"
	"testing"

	"greencloud/internal/energy"
	"greencloud/internal/location"
	"greencloud/internal/milp"
)

// testCatalog returns a small, reproducible catalog shared by the tests.
func testCatalog(t testing.TB, count int) *location.Catalog {
	t.Helper()
	cat, err := location.Generate(location.Options{Count: count, Seed: 11, RepresentativeDays: 2})
	if err != nil {
		t.Fatalf("generate catalog: %v", err)
	}
	return cat
}

// smallSpec is a 10 MW network spec that keeps tests fast.
func smallSpec() Spec {
	s := DefaultSpec()
	s.TotalCapacityKW = 10_000
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero capacity", func(s *Spec) { s.TotalCapacityKW = 0 }},
		{"negative green", func(s *Spec) { s.MinGreenFraction = -0.1 }},
		{"green above one", func(s *Spec) { s.MinGreenFraction = 1.5 }},
		{"migration above one", func(s *Spec) { s.MigrationFraction = 2 }},
		{"availability one", func(s *Spec) { s.MinAvailability = 1 }},
		{"bad site availability", func(s *Spec) { s.SiteAvailability = 0 }},
		{"bad sources", func(s *Spec) { s.Sources = SourceMix(99) }},
		{"bad storage", func(s *Spec) { s.Storage = energy.StorageMode(99) }},
		{"bad cost params", func(s *Spec) { s.Cost.BatteryEfficiency = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpec()
			tc.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("want ErrBadSpec, got %v", err)
			}
		})
	}
}

func TestSpecDefaultsAndMinDatacenters(t *testing.T) {
	var s Spec
	s = s.withDefaults()
	if s.TotalCapacityKW != 50_000 || s.Storage != energy.NetMetering || s.Sources != SolarAndWind {
		t.Errorf("withDefaults produced %+v", s)
	}
	n, err := s.MinDatacenters()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("MinDatacenters = %d, want 2 for five nines with paper-tier sites", n)
	}
	if SolarOnly.String() != "solar" || WindOnly.String() != "wind" || SolarAndWind.String() != "solar+wind" {
		t.Error("unexpected SourceMix names")
	}
	if SourceMix(9).String() == "" {
		t.Error("unknown source mix should still print")
	}
}

func TestEvaluateValidation(t *testing.T) {
	cat := testCatalog(t, 20)
	if _, err := Evaluate(cat, nil, smallSpec()); !errors.Is(err, ErrNoSites) {
		t.Errorf("want ErrNoSites, got %v", err)
	}
	if _, err := Evaluate(cat, []Candidate{{SiteID: 999}}, smallSpec()); err == nil {
		t.Error("unknown site should error")
	}
	bad := smallSpec()
	bad.MinGreenFraction = 2
	if _, err := Evaluate(cat, []Candidate{{SiteID: 0}}, bad); !errors.Is(err, ErrBadSpec) {
		t.Errorf("want ErrBadSpec, got %v", err)
	}
}

func TestEvaluateBrownNetwork(t *testing.T) {
	cat := testCatalog(t, 30)
	spec := smallSpec()
	spec.MinGreenFraction = 0
	sol, err := Evaluate(cat, []Candidate{{SiteID: 0}, {SiteID: 1}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("brown network should be feasible: %v", sol.Violations)
	}
	if sol.SolarKW != 0 || sol.WindKW != 0 || sol.BatteryKWh != 0 {
		t.Errorf("brown network should build no plants, got solar=%v wind=%v batt=%v",
			sol.SolarKW, sol.WindKW, sol.BatteryKWh)
	}
	if sol.ProvisionedCapacityKW < spec.TotalCapacityKW-1 {
		t.Errorf("provisioned capacity %v below requirement", sol.ProvisionedCapacityKW)
	}
	if sol.TotalMonthlyUSD <= 0 {
		t.Error("brown network must still cost something")
	}
	if sol.Breakdown.BrownEnergy <= 0 {
		t.Error("brown network should pay for grid energy")
	}
	if sol.Summary() == "" {
		t.Error("Summary should not be empty")
	}
}

func TestEvaluateGreenCostsMoreThanBrown(t *testing.T) {
	cat := testCatalog(t, 40)
	brownSpec := smallSpec()
	brownSpec.MinGreenFraction = 0
	greenSpec := smallSpec()
	greenSpec.MinGreenFraction = 0.5

	cands := []Candidate{{SiteID: 2}, {SiteID: 5}}
	brown, err := Evaluate(cat, cands, brownSpec)
	if err != nil {
		t.Fatal(err)
	}
	green, err := Evaluate(cat, cands, greenSpec)
	if err != nil {
		t.Fatal(err)
	}
	if green.SolarKW+green.WindKW <= 0 {
		t.Fatal("green solution built no plants")
	}
	if green.GreenFraction < 0.5-1e-3 {
		t.Errorf("green fraction %v below target", green.GreenFraction)
	}
	// Plants cost money, but the grid bill shrinks; the net cost should be
	// moderately higher, not wildly different.
	if green.TotalMonthlyUSD <= brown.TotalMonthlyUSD*0.95 {
		t.Errorf("50%% green (%v) should not be cheaper than brown (%v)",
			green.TotalMonthlyUSD, brown.TotalMonthlyUSD)
	}
	if green.TotalMonthlyUSD > brown.TotalMonthlyUSD*2.5 {
		t.Errorf("50%% green (%v) looks implausibly expensive vs brown (%v)",
			green.TotalMonthlyUSD, brown.TotalMonthlyUSD)
	}
	if brown.Breakdown.BrownEnergy <= green.Breakdown.BrownEnergy {
		t.Error("the green network should buy less brown energy")
	}
}

func TestEvaluateRespectsSourceMix(t *testing.T) {
	cat := testCatalog(t, 40)
	cands := []Candidate{{SiteID: 3}, {SiteID: 9}}

	solarSpec := smallSpec()
	solarSpec.Sources = SolarOnly
	solarSpec.MinGreenFraction = 0.4
	sol, err := Evaluate(cat, cands, solarSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sol.WindKW != 0 {
		t.Errorf("solar-only solution built %v kW of wind", sol.WindKW)
	}
	if sol.SolarKW <= 0 {
		t.Error("solar-only solution built no solar")
	}

	windSpec := smallSpec()
	windSpec.Sources = WindOnly
	windSpec.MinGreenFraction = 0.4
	sol, err = Evaluate(cat, cands, windSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sol.SolarKW != 0 {
		t.Errorf("wind-only solution built %v kW of solar", sol.SolarKW)
	}
	if sol.WindKW <= 0 {
		t.Error("wind-only solution built no wind")
	}
}

func TestEvaluateStorageModes(t *testing.T) {
	// The same siting at 80% green: net metering should be the cheapest,
	// batteries in between, and no storage the most expensive (Figs. 8–10).
	cat := testCatalog(t, 60)
	// Use good renewable sites so the comparison is about storage.
	wind := cat.TopByWindCF(2)
	cands := []Candidate{{SiteID: wind[0].ID}, {SiteID: wind[1].ID}}

	costs := map[energy.StorageMode]float64{}
	for _, mode := range []energy.StorageMode{energy.NetMetering, energy.Batteries, energy.NoStorage} {
		spec := smallSpec()
		spec.MinGreenFraction = 0.8
		spec.Storage = mode
		sol, err := Evaluate(cat, cands, spec)
		if err != nil {
			t.Fatal(err)
		}
		costs[mode] = sol.TotalMonthlyUSD
		if mode == energy.Batteries && sol.BatteryKWh <= 0 {
			t.Error("battery mode should install batteries")
		}
		if mode != energy.Batteries && sol.BatteryKWh != 0 {
			t.Errorf("%v mode should not install batteries", mode)
		}
	}
	if costs[energy.NetMetering] > costs[energy.NoStorage] {
		t.Errorf("net metering (%v) should not cost more than no storage (%v)",
			costs[energy.NetMetering], costs[energy.NoStorage])
	}
	if costs[energy.NetMetering] > costs[energy.Batteries] {
		t.Errorf("net metering (%v) should not cost more than batteries (%v)",
			costs[energy.NetMetering], costs[energy.Batteries])
	}
}

func TestEvaluateMigrationFractionReducesCost(t *testing.T) {
	// With no storage and a high green fraction, cheaper migrations reduce
	// the total cost (Fig. 13 direction).
	cat := testCatalog(t, 60)
	wind := cat.TopByWindCF(2)
	solar := cat.TopBySolarCF(1)
	cands := []Candidate{
		{SiteID: wind[0].ID, CapacityKW: 10_000},
		{SiteID: wind[1].ID, CapacityKW: 10_000},
		{SiteID: solar[0].ID, CapacityKW: 10_000},
	}
	run := func(frac float64) float64 {
		spec := smallSpec()
		spec.Storage = energy.NoStorage
		spec.MinGreenFraction = 0.9
		spec.MigrationFraction = frac
		sol, err := Evaluate(cat, cands, spec)
		if err != nil {
			t.Fatal(err)
		}
		return sol.TotalMonthlyUSD
	}
	full := run(1.0)
	none := run(0.0)
	if none > full+1e-6 {
		t.Errorf("zero-cost migration (%v) should not cost more than full-epoch migration (%v)", none, full)
	}
}

func TestEvaluateInfeasibleCases(t *testing.T) {
	cat := testCatalog(t, 30)

	// One datacenter cannot reach five nines.
	spec := smallSpec()
	sol, err := Evaluate(cat, []Candidate{{SiteID: 0}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("a single datacenter should violate the availability constraint")
	}

	// Capacity below the requirement.
	sol, err = Evaluate(cat, []Candidate{{SiteID: 0, CapacityKW: 1000}, {SiteID: 1, CapacityKW: 1000}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("under-provisioned capacity should be infeasible")
	}
}

func TestEvaluateSingleSiteBrownVsWind(t *testing.T) {
	// Fig. 6's qualitative fact: at a good wind location, a 50%-green wind
	// datacenter costs only moderately more than a brown one.
	cat := testCatalog(t, 80)
	windSite := cat.TopByWindCF(1)[0]

	brownSpec := smallSpec()
	brownSpec.MinGreenFraction = 0
	brown, err := EvaluateSingleSite(cat, windSite.ID, 25_000, brownSpec)
	if err != nil {
		t.Fatal(err)
	}
	windSpec := smallSpec()
	windSpec.MinGreenFraction = 0.5
	windSpec.Sources = WindOnly
	wind, err := EvaluateSingleSite(cat, windSite.ID, 25_000, windSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !brown.Feasible {
		t.Fatalf("brown single site should be feasible: %v", brown.Violations)
	}
	// At an exceptional wind site the 50%-green build can even be slightly
	// cheaper than brown (net metering sells the surplus at retail price);
	// anywhere in the 0.9–2.0 band is consistent with Fig. 6.
	ratio := wind.TotalMonthlyUSD / brown.TotalMonthlyUSD
	if ratio < 0.9 || ratio > 2.0 {
		t.Errorf("wind/brown cost ratio %v at the best wind site out of the expected band", ratio)
	}
}

func TestScheduleFollowsRenewables(t *testing.T) {
	// With two sites in different time zones and plants installed, the
	// schedule must shift load toward the site with green production.
	cat := testCatalog(t, 80)
	solarSites := cat.TopBySolarCF(6)
	// Find two with very different UTC offsets.
	var a, b *location.Site
	for _, s1 := range solarSites {
		for _, s2 := range solarSites {
			if circularHourDistance(s1.UTCOffsetHours, s2.UTCOffsetHours) >= 8 {
				a, b = s1, s2
				break
			}
		}
		if a != nil {
			break
		}
	}
	if a == nil {
		t.Skip("no pair of solar sites far apart in time zones in this catalog")
	}
	spec := smallSpec()
	spec.Storage = energy.NoStorage
	spec.Sources = SolarOnly
	spec.MinGreenFraction = 0.5
	e, err := NewEvaluator(cat, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate([]Candidate{
		{SiteID: a.ID, CapacityKW: 10_000},
		{SiteID: b.ID, CapacityKW: 10_000},
	}); err != nil {
		t.Fatal(err)
	}
	// The two sites' compute assignments (the evaluator's schedule rows)
	// must not be identical across all epochs: load follows the sun.
	identical := true
	for t2, c := range e.compute.Row(0) {
		if math.Abs(c-e.compute.Row(1)[t2]) > 1 {
			identical = false
			break
		}
	}
	if identical {
		t.Error("load schedule does not follow the renewables across time zones")
	}
	// Migration overhead must be accounted somewhere.
	totalMigration := 0.0
	for i := 0; i < 2; i++ {
		for _, m := range e.migration.Row(i) {
			totalMigration += m
		}
	}
	if totalMigration <= 0 {
		t.Error("expected some migration overhead in a follow-the-renewables schedule")
	}
}

func TestFilterSites(t *testing.T) {
	cat := testCatalog(t, 80)
	spec := smallSpec()
	ids, err := FilterSites(cat, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 20 {
		t.Fatalf("filter kept %d sites, want at least 20", len(ids))
	}
	if len(ids) > 45 {
		t.Fatalf("filter kept %d sites, want roughly 20 plus the renewable anchors", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("filter returned duplicate site %d", id)
		}
		seen[id] = true
		if _, err := cat.Site(id); err != nil {
			t.Fatalf("filter returned invalid site %d", id)
		}
	}
	// The single best wind site must survive filtering (it anchors green
	// solutions).
	best := cat.TopByWindCF(1)[0]
	if !seen[best.ID] {
		t.Errorf("best wind site %s was filtered out", best.Name)
	}
	if _, err := FilterSites(cat, Spec{TotalCapacityKW: -5}, 10); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestSolveSmallNetwork(t *testing.T) {
	cat := testCatalog(t, 60)
	spec := smallSpec()
	spec.MinGreenFraction = 0.5
	sol, err := Solve(cat, spec, SolveOptions{
		FilterKeep:    15,
		Chains:        2,
		MaxIterations: 40,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Feasible {
		t.Fatalf("heuristic returned an infeasible solution: %v", sol.Violations)
	}
	if len(sol.Sites) < 2 {
		t.Errorf("expected at least 2 datacenters for five nines, got %d", len(sol.Sites))
	}
	if sol.GreenFraction < 0.5-1e-3 {
		t.Errorf("green fraction %v below target", sol.GreenFraction)
	}
	if sol.ProvisionedCapacityKW < spec.TotalCapacityKW-1 {
		t.Errorf("capacity %v below requirement", sol.ProvisionedCapacityKW)
	}
	if sol.TotalMonthlyUSD <= 0 {
		t.Error("cost must be positive")
	}
}

func TestSolveBrownCheaperThanGreen(t *testing.T) {
	cat := testCatalog(t, 60)
	opts := SolveOptions{FilterKeep: 12, Chains: 2, MaxIterations: 30, Seed: 3}

	brownSpec := smallSpec()
	brownSpec.MinGreenFraction = 0
	brown, err := Solve(cat, brownSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	greenSpec := smallSpec()
	greenSpec.MinGreenFraction = 0.5
	green, err := Solve(cat, greenSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if green.TotalMonthlyUSD < brown.TotalMonthlyUSD*0.98 {
		t.Errorf("50%% green network (%v) should not beat the brown network (%v)",
			green.TotalMonthlyUSD, brown.TotalMonthlyUSD)
	}
	// The paper's headline: the premium is modest (13% there).  Allow a
	// generous band for the synthetic catalog.
	premium := green.TotalMonthlyUSD/brown.TotalMonthlyUSD - 1
	if premium > 0.8 {
		t.Errorf("green premium %.0f%% looks too large", premium*100)
	}
}

func TestSolveExactTinyInstance(t *testing.T) {
	// A coarse one-representative-day grid keeps the MILP small enough for
	// the dense simplex to solve in seconds.
	cat, err := location.Generate(location.Options{Count: 20, Seed: 11, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.MinGreenFraction = 0.3
	spec.Storage = energy.NoStorage

	// Hand the exact solver a handful of candidates including a good wind
	// site.
	ids := []int{0, 1}
	ids = append(ids, cat.TopByWindCF(1)[0].ID)
	exact, err := SolveExact(cat, ids, spec, ExactOptions{})
	if err != nil {
		t.Fatalf("SolveExact: %v", err)
	}
	if len(exact.Sites) < 2 {
		t.Errorf("exact solution has %d sites, want ≥ 2 (availability)", len(exact.Sites))
	}
	if exact.TotalMonthlyUSD <= 0 {
		t.Error("exact solution cost must be positive")
	}
	// The heuristic restricted to the same candidates should land in the
	// same ballpark (the paper found its heuristic matches the MILP at the
	// extremes).  The MILP objective is a linearization and its siting is
	// re-priced by the evaluator, so the band is generous; what matters is
	// that neither path collapses or explodes.
	sub, err := cat.Subset(ids)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Solve(sub, spec, SolveOptions{FilterKeep: len(ids), Chains: 2, MaxIterations: 40, Seed: 2})
	if err != nil {
		t.Fatalf("heuristic on subset: %v", err)
	}
	ratio := heur.TotalMonthlyUSD / exact.TotalMonthlyUSD
	if ratio < 0.45 || ratio > 2.0 {
		t.Errorf("heuristic/exact cost ratio %v is out of band", ratio)
	}
}

// TestSolveExactBudgetReportsGap pins what a node-capped exact solve
// reports.  The instance below branches (its root relaxation is
// fractional) and closes at its third node: capped at one node the search
// has no incumbent yet and fails, capped at two it returns its incumbent
// with the bound gap still open, and uncapped it closes with no gap.
func TestSolveExactBudgetReportsGap(t *testing.T) {
	cat, err := location.Generate(location.Options{Count: 20, Seed: 11, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.MinGreenFraction = 0.3
	spec.Storage = energy.NoStorage
	ids := []int{0, 1, cat.TopByWindCF(1)[0].ID}

	full, err := SolveExact(cat, ids, spec, ExactOptions{})
	if err != nil {
		t.Fatalf("uncapped: %v", err)
	}
	if full.ExactNodes < 3 || !full.ExactProven || full.ExactGap != 0 {
		t.Fatalf("uncapped: %d nodes, proven %v, gap %v; want a closed search that branched",
			full.ExactNodes, full.ExactProven, full.ExactGap)
	}
	if _, err := SolveExact(cat, ids, spec, ExactOptions{MaxNodes: 1}); !errors.Is(err, milp.ErrNodeLimit) {
		t.Errorf("one node: err = %v, want milp.ErrNodeLimit (the root relaxation is fractional)", err)
	}
	capped, err := SolveExact(cat, ids, spec, ExactOptions{MaxNodes: 2})
	if err != nil {
		t.Fatalf("two nodes: %v", err)
	}
	if capped.ExactNodes != 2 || capped.ExactProven || !(capped.ExactGap > 0) {
		t.Errorf("two nodes: %d nodes, proven %v, gap %v; want the unproven incumbent with an open gap",
			capped.ExactNodes, capped.ExactProven, capped.ExactGap)
	}
}

func TestSolveExactValidation(t *testing.T) {
	cat := testCatalog(t, 10)
	if _, err := SolveExact(cat, nil, smallSpec(), ExactOptions{}); !errors.Is(err, ErrNoSites) {
		t.Errorf("want ErrNoSites, got %v", err)
	}
	if _, err := SolveExact(cat, []int{0}, smallSpec(), ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("one candidate for two required DCs: want ErrInfeasible, got %v", err)
	}
	bad := smallSpec()
	bad.TotalCapacityKW = -1
	if _, err := SolveExact(cat, []int{0, 1}, bad, ExactOptions{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("want ErrBadSpec, got %v", err)
	}
}

// circularHourDistance is the distance between two UTC offsets around the
// 24-hour clock.
func circularHourDistance(a, b int) float64 {
	d := math.Abs(float64(a - b))
	if d > 12 {
		d = 24 - d
	}
	return d
}
