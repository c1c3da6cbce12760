package sched

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"greencloud/internal/vm"
)

// forecast builds an hourly forecast of the given length from a pattern
// repeated per day (len(pattern) must divide 24).
func forecast(hours int, dayPattern []float64) []float64 {
	out := make([]float64, hours)
	for h := 0; h < hours; h++ {
		out[h] = dayPattern[h%len(dayPattern)]
	}
	return out
}

func threeDCs(horizon int) []DatacenterState {
	day := make([]float64, 24)
	night := make([]float64, 24)
	evening := make([]float64, 24)
	for h := 0; h < 24; h++ {
		switch {
		case h >= 6 && h < 14:
			day[h] = 400
		case h >= 14 && h < 22:
			evening[h] = 400
		default:
			night[h] = 400
		}
	}
	return []DatacenterState{
		{Name: "kenya", CapacityKW: 300, CurrentLoadKW: 270, GreenForecastKW: forecast(horizon, day),
			PUE: []float64{1.07}, GridPriceUSDPerKWh: 0.098},
		{Name: "mexico", CapacityKW: 300, CurrentLoadKW: 0, GreenForecastKW: forecast(horizon, evening),
			PUE: []float64{1.08}, GridPriceUSDPerKWh: 0.09},
		{Name: "guam", CapacityKW: 300, CurrentLoadKW: 0, GreenForecastKW: forecast(horizon, night),
			PUE: []float64{1.09}, GridPriceUSDPerKWh: 0.11},
	}
}

func TestPartitionFollowsRenewables(t *testing.T) {
	s := New(Options{HorizonHours: 24, MigrationFraction: 0.1})
	dcs := threeDCs(24)
	plan, err := s.Partition(dcs, 270)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(plan.LoadKW) != 3 || len(plan.LoadKW[0]) != 24 {
		t.Fatalf("plan shape %dx%d", len(plan.LoadKW), len(plan.LoadKW[0]))
	}
	// Every hour the whole load is placed.
	for h := 0; h < 24; h++ {
		total := plan.LoadKW[0][h] + plan.LoadKW[1][h] + plan.LoadKW[2][h]
		if math.Abs(total-270) > 1e-3 {
			t.Fatalf("hour %d places %v kW, want 270", h, total)
		}
		for d := range dcs {
			if plan.LoadKW[d][h] > dcs[d].CapacityKW+1e-6 {
				t.Fatalf("hour %d: %s over capacity", h, dcs[d].Name)
			}
		}
	}
	// During hours 6–13 the green energy is in Kenya, so most load should
	// be there; during 14–21 it should be in Mexico.
	if plan.LoadKW[0][8] < 200 {
		t.Errorf("hour 8: kenya load %v, want most of the 270 kW", plan.LoadKW[0][8])
	}
	if plan.LoadKW[1][16] < 200 {
		t.Errorf("hour 16: mexico load %v, want most of the 270 kW", plan.LoadKW[1][16])
	}
	// Following the renewables must use less brown energy than never
	// migrating at all.
	static := s.BrownEnergyIfStatic(dcs)
	if plan.BrownKWh >= static {
		t.Errorf("planned brown %v should beat the static baseline %v", plan.BrownKWh, static)
	}
	if plan.MigratedKW <= 0 {
		t.Error("the first hour should already move some load")
	}
}

// TestPartitionWarmResolveMatchesFresh pins the cached-LP contract: a
// scheduler that has already solved a round (and so re-solves the mutated
// problem warm from its previous basis) must produce the same plan as a
// fresh scheduler solving the same inputs cold.
func TestPartitionWarmResolveMatchesFresh(t *testing.T) {
	warmSched := New(Options{HorizonHours: 24, MigrationFraction: 0.1})
	round1 := threeDCs(24)
	if _, err := warmSched.Partition(round1, 270); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	// Round 2: the load moved and the forecasts shifted.
	round2 := threeDCs(24)
	round2[0].CurrentLoadKW = 80
	round2[1].CurrentLoadKW = 190
	for d := range round2 {
		for h := range round2[d].GreenForecastKW {
			round2[d].GreenForecastKW[h] *= 0.9
		}
	}
	warm, err := warmSched.Partition(round2, 250)
	if err != nil {
		t.Fatalf("warm round 2: %v", err)
	}
	cold, err := New(Options{HorizonHours: 24, MigrationFraction: 0.1}).Partition(round2, 250)
	if err != nil {
		t.Fatalf("cold round 2: %v", err)
	}
	if math.Abs(warm.BrownKWh-cold.BrownKWh) > 1e-6 {
		t.Errorf("warm BrownKWh %v, cold %v", warm.BrownKWh, cold.BrownKWh)
	}
	if math.Abs(warm.MigratedKW-cold.MigratedKW) > 1e-6 {
		t.Errorf("warm MigratedKW %v, cold %v", warm.MigratedKW, cold.MigratedKW)
	}
	for d := range warm.LoadKW {
		for h := range warm.LoadKW[d] {
			if math.Abs(warm.LoadKW[d][h]-cold.LoadKW[d][h]) > 1e-6 {
				t.Fatalf("plan[%d][%d]: warm %v, cold %v", d, h, warm.LoadKW[d][h], cold.LoadKW[d][h])
			}
		}
	}
}

// TestPartitionInstalledBasisSurvivesFirstBuild pins the restart path: a
// fresh scheduler given a carried basis through SetWarmBasis before its
// first round (a planner resuming from persisted state) solves that round
// warm from it — bit-identical to the scheduler that carried the basis —
// instead of the first LP build discarding it.
func TestPartitionInstalledBasisSurvivesFirstBuild(t *testing.T) {
	opts := Options{HorizonHours: 24, MigrationFraction: 0.1}
	round2 := threeDCs(24)
	round2[0].CurrentLoadKW = 80
	round2[1].CurrentLoadKW = 190

	carried := New(opts)
	if _, err := carried.Partition(threeDCs(24), 270); err != nil {
		t.Fatal(err)
	}
	basis := carried.WarmBasis()
	want, err := carried.Partition(round2, 250)
	if err != nil {
		t.Fatal(err)
	}

	resumed := New(opts)
	resumed.SetWarmBasis(basis)
	got, err := resumed.Partition(round2, 250)
	if err != nil {
		t.Fatal(err)
	}
	if got.LPStats != want.LPStats {
		t.Fatalf("resumed round did different LP work: %+v, carried %+v", got.LPStats, want.LPStats)
	}
	if got.BrownKWh != want.BrownKWh || !reflect.DeepEqual(got.LoadKW, want.LoadKW) {
		t.Fatal("resumed round planned differently from the carried one")
	}
}

func TestPartitionValidation(t *testing.T) {
	s := New(Options{HorizonHours: 24})
	if _, err := s.Partition(nil, 100); !errors.Is(err, ErrNoDatacenters) {
		t.Errorf("want ErrNoDatacenters, got %v", err)
	}
	dcs := threeDCs(24)
	if _, err := s.Partition(dcs, 10_000); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("want ErrOverCapacity, got %v", err)
	}
	short := threeDCs(10)
	if _, err := s.Partition(short, 100); !errors.Is(err, ErrForecastTooShort) {
		t.Errorf("want ErrForecastTooShort, got %v", err)
	}
}

func TestPartitionMigrationCostDiscouragesChurn(t *testing.T) {
	// Two identical datacenters with identical green: with a high migration
	// cost the load should stay where it is rather than bounce around.
	horizon := 12
	green := forecast(horizon, []float64{100})
	dcs := []DatacenterState{
		{Name: "a", CapacityKW: 200, CurrentLoadKW: 150, GreenForecastKW: green, PUE: []float64{1.1}, GridPriceUSDPerKWh: 0.1},
		{Name: "b", CapacityKW: 200, CurrentLoadKW: 0, GreenForecastKW: green, PUE: []float64{1.1}, GridPriceUSDPerKWh: 0.1},
	}
	s := New(Options{HorizonHours: horizon, MigrationFraction: 1})
	plan, err := s.Partition(dcs, 150)
	if err != nil {
		t.Fatal(err)
	}
	// Site a can use at most 100 kW of green; moving ~50 kW to b would gain
	// green use but cost a migration epoch.  Whatever the trade-off, the
	// plan must not move load back and forth hour after hour.
	flips := 0
	for h := 1; h < horizon; h++ {
		if math.Abs(plan.LoadKW[0][h]-plan.LoadKW[0][h-1]) > 1 {
			flips++
		}
	}
	if flips > 2 {
		t.Errorf("load at site a changed %d times over %d hours; migration cost should damp churn", flips, horizon)
	}
}

func TestMigrationSchedulePolicy(t *testing.T) {
	s := New(Options{HorizonHours: 2, MigrationFraction: 1})
	dcs := []DatacenterState{
		{Name: "donor", CapacityKW: 10, CurrentLoadKW: 0.27}, // 9 VMs × 30 W
		{Name: "near", CapacityKW: 10, CurrentLoadKW: 0},
		{Name: "far", CapacityKW: 10, CurrentLoadKW: 0},
	}
	plan := &Plan{LoadKW: [][]float64{{0.03, 0}, {0.12, 0}, {0.12, 0}}}

	big := vm.NewHPCVM("big")
	big.DiskMB = 50 * 1024
	fleet := append(vm.NewHPCFleet("small", 8), big)
	placements := map[string]vm.Fleet{"donor": fleet}

	distance := func(a, b string) float64 {
		if (a == "donor" && b == "near") || (a == "near" && b == "donor") {
			return 1
		}
		return 100
	}
	moves, err := s.MigrationSchedule(dcs, placements, plan, distance)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("expected migrations")
	}
	// Smallest-footprint VMs move first: the big VM must not be among the
	// first movers.
	if moves[0].VM.ID == "big" {
		t.Error("the largest VM should migrate last")
	}
	// The closest receiver fills up first.
	if moves[0].To != "near" {
		t.Errorf("first migration goes to %s, want the closest receiver", moves[0].To)
	}
	nearPower, farPower := 0.0, 0.0
	for _, m := range moves {
		if m.From != "donor" {
			t.Errorf("unexpected donor %s", m.From)
		}
		switch m.To {
		case "near":
			nearPower += m.VM.PowerW
		case "far":
			farPower += m.VM.PowerW
		}
	}
	// Receivers should not get more power than the plan gives them headroom
	// for (0.12 kW each).
	if nearPower > 120+1e-6 || farPower > 120+1e-6 {
		t.Errorf("receivers overloaded: near %v W, far %v W", nearPower, farPower)
	}
	// A mismatched plan errors.
	if _, err := s.MigrationSchedule(dcs[:2], placements, plan, distance); err == nil {
		t.Error("plan/datacenter mismatch should error")
	}
	// A nil distance function is tolerated.
	if _, err := s.MigrationSchedule(dcs, placements, plan, nil); err != nil {
		t.Errorf("nil distance: %v", err)
	}
}

func TestRoundLoads(t *testing.T) {
	counts := RoundLoads([]float64{0.15, 0.09, 0.03}, 30, 9)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 9 {
		t.Fatalf("rounded counts sum to %d, want 9", total)
	}
	// 0.15 kW / 30 W = 5 VMs, 0.09 → 3, 0.03 → 1.
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 1 {
		t.Errorf("counts = %v, want [5 3 1]", counts)
	}
	if got := RoundLoads([]float64{1, 2}, 0, 5); got[0] != 0 || got[1] != 0 {
		t.Error("zero VM power should produce zero counts")
	}
	if got := RoundLoads(nil, 30, 5); len(got) != 0 {
		t.Error("empty loads should produce empty counts")
	}
}

func TestOptionsDefaults(t *testing.T) {
	s := New(Options{})
	if s.opts.HorizonHours != 48 {
		t.Errorf("default horizon = %d, want 48", s.opts.HorizonHours)
	}
	if s.opts.MigrationFraction != 1 {
		t.Errorf("default migration fraction = %v, want 1", s.opts.MigrationFraction)
	}
}

// TestPartitionCapacityBoundBinds pins the capacity-as-variable-bound
// formulation: when one site holds all the green energy but has too little
// capacity for the whole load, the plan pins its load exactly at the
// capacity bound; shrinking the capacity between rounds is a pure bound
// edit on the cached LP, and the warm re-solve must honor the new bound
// and agree with a cold scheduler.
func TestPartitionCapacityBoundBinds(t *testing.T) {
	horizon := 6
	mkDCs := func(capA float64) []DatacenterState {
		return []DatacenterState{
			{Name: "green", CapacityKW: capA, CurrentLoadKW: 0,
				GreenForecastKW: forecast(horizon, []float64{1000}),
				PUE:             []float64{1.1}, GridPriceUSDPerKWh: 0.1},
			{Name: "brown", CapacityKW: 500, CurrentLoadKW: 200,
				GreenForecastKW: forecast(horizon, []float64{0}),
				PUE:             []float64{1.1}, GridPriceUSDPerKWh: 0.1},
		}
	}
	s := New(Options{HorizonHours: horizon, MigrationFraction: 0.1})
	plan, err := s.Partition(mkDCs(120), 200)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	for h := 1; h < horizon; h++ {
		if math.Abs(plan.LoadKW[0][h]-120) > 1e-6 {
			t.Fatalf("hour %d: green-site load %v, want pinned at its 120 kW capacity", h, plan.LoadKW[0][h])
		}
	}
	// Round 2: the green site lost a rack; its capacity bound tightens.
	warm, err := s.Partition(mkDCs(90), 200)
	if err != nil {
		t.Fatalf("round 2 warm: %v", err)
	}
	cold, err := New(Options{HorizonHours: horizon, MigrationFraction: 0.1}).Partition(mkDCs(90), 200)
	if err != nil {
		t.Fatalf("round 2 cold: %v", err)
	}
	for h := 1; h < horizon; h++ {
		if warm.LoadKW[0][h] > 90+1e-6 {
			t.Fatalf("hour %d: green-site load %v exceeds the tightened 90 kW bound", h, warm.LoadKW[0][h])
		}
	}
	if math.Abs(warm.BrownKWh-cold.BrownKWh) > 1e-6 {
		t.Errorf("warm BrownKWh %v, cold %v", warm.BrownKWh, cold.BrownKWh)
	}
}

// TestPartitionRoundsStayWarm pins the warm-start contract at the scheduler
// layer: every round after the first must re-solve warm — zero cold
// fallbacks, never a degraded plan — and plan the same brown energy as a
// fresh scheduler solving that round cold.
func TestPartitionRoundsStayWarm(t *testing.T) {
	const horizon = 24
	opts := Options{HorizonHours: horizon, MigrationFraction: 0.1}
	warm := New(opts)
	for round := 0; round < 6; round++ {
		scale := 1 - 0.05*float64(round)
		load := 270 - 10*float64(round)
		plan, err := warm.Partition(threeDCsScaled(horizon, scale), load)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold, err := New(opts).Partition(threeDCsScaled(horizon, scale), load)
		if err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		if plan.Degraded {
			t.Fatalf("round %d degraded: %s", round, plan.DegradedReason)
		}
		if math.Abs(plan.BrownKWh-cold.BrownKWh) > 1e-6 {
			t.Errorf("round %d: BrownKWh %v warm vs %v cold", round, plan.BrownKWh, cold.BrownKWh)
		}
		if round > 0 && plan.LPStats.ColdFallbacks != 0 {
			t.Errorf("round %d fell back cold (%+v)", round, plan.LPStats)
		}
	}
}

// threeDCsScaled is threeDCs with every green forecast scaled.
func threeDCsScaled(horizon int, scale float64) []DatacenterState {
	dcs := threeDCs(horizon)
	for d := range dcs {
		for h := range dcs[d].GreenForecastKW {
			dcs[d].GreenForecastKW[h] *= scale
		}
	}
	return dcs
}
