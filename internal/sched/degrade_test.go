package sched

import (
	"math"
	"strings"
	"testing"
	"time"

	"greencloud/internal/lp"
)

// degrade_test drives the scheduler's graceful-degradation path with real
// injected LP faults: when the partition LP fails mid-round the scheduler
// must hand back a feasible static plan tagged Degraded — never an error,
// never an infeasible split — and recover to optimal plans once the solver
// is healthy again.

// assertPlanFeasible checks the plan invariants every Partition result must
// satisfy, degraded or not: per-hour totals equal the requested load and no
// datacenter exceeds its capacity.
func assertPlanFeasible(t *testing.T, plan *Plan, dcs []DatacenterState, totalLoadKW float64) {
	t.Helper()
	if len(plan.LoadKW) != len(dcs) {
		t.Fatalf("plan has %d rows, want %d", len(plan.LoadKW), len(dcs))
	}
	for h := range plan.LoadKW[0] {
		total := 0.0
		for d := range plan.LoadKW {
			v := plan.LoadKW[d][h]
			if v < -1e-9 {
				t.Fatalf("hour %d: %s load %v is negative", h, dcs[d].Name, v)
			}
			if v > dcs[d].CapacityKW+1e-6 {
				t.Fatalf("hour %d: %s load %v exceeds capacity %v", h, dcs[d].Name, v, dcs[d].CapacityKW)
			}
			total += v
		}
		if math.Abs(total-totalLoadKW) > 1e-6 {
			t.Fatalf("hour %d places %v kW, want %v", h, total, totalLoadKW)
		}
	}
}

// TestPartitionDegradesOnLPFault makes every basis factorization of the
// round's LP fail (cold starts cannot repair a singular all-slack basis) and
// asserts the scheduler returns a feasible degraded plan instead of an error.
func TestPartitionDegradesOnLPFault(t *testing.T) {
	t.Cleanup(lp.DisarmFaults)
	s := New(Options{HorizonHours: 24, MigrationFraction: 0.1})
	dcs := threeDCs(24)

	lp.ArmFault(lp.FaultSingularLU, 0, 1<<20)
	plan, err := s.Partition(dcs, 270)
	if err != nil {
		t.Fatalf("Partition with failing LP: %v (must degrade, not error)", err)
	}
	if !plan.Degraded {
		t.Fatal("plan.Degraded = false, want true (the LP could not have succeeded)")
	}
	if plan.DegradedReason == "" {
		t.Error("DegradedReason is empty")
	}
	assertPlanFeasible(t, plan, dcs, 270)
	// The whole 270 kW already sits in kenya within capacity, so the static
	// split keeps it there: nothing migrates, and the brown energy matches
	// the never-migrate baseline exactly.
	if plan.MigratedKW != 0 {
		t.Errorf("MigratedKW = %v, want 0 for the keep-in-place fallback", plan.MigratedKW)
	}
	if static := s.brownEnergyIfStatic(dcs); math.Abs(plan.BrownKWh-static) > 1e-9 {
		t.Errorf("degraded BrownKWh = %v, want static baseline %v", plan.BrownKWh, static)
	}

	// Solver healthy again: the next round must return to a real LP plan
	// identical to a fresh scheduler's (the corrupt warm basis was dropped).
	lp.DisarmFaults()
	healthy, err := s.Partition(dcs, 270)
	if err != nil {
		t.Fatalf("Partition after recovery: %v", err)
	}
	if healthy.Degraded {
		t.Fatal("plan still degraded after faults cleared")
	}
	fresh, err := New(Options{HorizonHours: 24, MigrationFraction: 0.1}).Partition(threeDCs(24), 270)
	if err != nil {
		t.Fatalf("fresh Partition: %v", err)
	}
	for d := range healthy.LoadKW {
		for h := range healthy.LoadKW[d] {
			if math.Abs(healthy.LoadKW[d][h]-fresh.LoadKW[d][h]) > 1e-6 {
				t.Fatalf("recovered plan[%d][%d] = %v, fresh = %v", d, h, healthy.LoadKW[d][h], fresh.LoadKW[d][h])
			}
		}
	}
}

// TestPartitionWarmCorruptionFallsBackCold corrupts only the warm start of
// round 2 (the repair budget runs out, then the fault arm is exhausted) and
// asserts the solve silently falls back to a clean cold solve: same plan as
// a fresh scheduler, not degraded.
func TestPartitionWarmCorruptionFallsBackCold(t *testing.T) {
	t.Cleanup(lp.DisarmFaults)
	s := New(Options{HorizonHours: 24, MigrationFraction: 0.1})
	round1 := threeDCs(24)
	if _, err := s.Partition(round1, 270); err != nil {
		t.Fatalf("round 1: %v", err)
	}

	round2 := threeDCs(24)
	round2[0].CurrentLoadKW = 80
	round2[1].CurrentLoadKW = 190
	// One more singular factorization than the warm repair budget: the warm
	// attempt is abandoned, and the cold retry factorizes cleanly.
	lp.ArmFault(lp.FaultSingularLU, 0, 5)
	warm, err := s.Partition(round2, 250)
	if err != nil {
		t.Fatalf("round 2 with corrupted warm basis: %v", err)
	}
	if warm.Degraded {
		t.Fatalf("plan degraded (%s); the cold retry should have solved the round", warm.DegradedReason)
	}
	cold, err := New(Options{HorizonHours: 24, MigrationFraction: 0.1}).Partition(round2, 250)
	if err != nil {
		t.Fatalf("cold round 2: %v", err)
	}
	for d := range warm.LoadKW {
		for h := range warm.LoadKW[d] {
			if math.Abs(warm.LoadKW[d][h]-cold.LoadKW[d][h]) > 1e-6 {
				t.Fatalf("plan[%d][%d]: corrupted-warm %v, cold %v", d, h, warm.LoadKW[d][h], cold.LoadKW[d][h])
			}
		}
	}
}

// TestPartitionDegradesOnTimeout bounds the round with an already-hopeless
// LPTimeout and asserts the scheduler degrades instead of blocking.
func TestPartitionDegradesOnTimeout(t *testing.T) {
	s := New(Options{HorizonHours: 24, MigrationFraction: 0.1, LPTimeout: time.Nanosecond})
	dcs := threeDCs(24)
	plan, err := s.Partition(dcs, 270)
	if err != nil {
		t.Fatalf("Partition with expired timeout: %v", err)
	}
	if !plan.Degraded {
		t.Fatal("plan.Degraded = false, want true under a 1ns LP timeout")
	}
	if !strings.Contains(plan.DegradedReason, "deadline") {
		t.Errorf("DegradedReason = %q, want it to mention the deadline", plan.DegradedReason)
	}
	assertPlanFeasible(t, plan, dcs, 270)
}

// TestStaticFallbackRedistribution exercises the greedy split directly: extra
// load lands on the greenest headroom, excess load is shed from the least
// green sites, and the result stays feasible.
func TestStaticFallbackRedistribution(t *testing.T) {
	s := New(Options{HorizonHours: 24, MigrationFraction: 0.1})
	if _, err := s.Partition(threeDCs(24), 270); err != nil {
		t.Fatalf("warm-up Partition: %v", err) // sizes the scheduler's scratch
	}

	// More load than currently placed: the spare 200 kW must go to the
	// greenest headroom first (ties on mean forecast break by index → kenya).
	dcs := threeDCs(24)
	dcs[0].CurrentLoadKW = 50
	grow := s.staticFallback(dcs, 250, "test")
	assertPlanFeasible(t, grow, dcs, 250)
	if grow.LoadKW[0][0] != 250 {
		t.Errorf("greenest site got %v kW, want the full 250", grow.LoadKW[0][0])
	}

	// Less load than currently placed: the 70 kW excess is shed from the
	// least green end of the order (guam has nothing, so mexico sheds).
	dcs = threeDCs(24)
	dcs[0].CurrentLoadKW = 270
	dcs[1].CurrentLoadKW = 100
	shed := s.staticFallback(dcs, 300, "test")
	assertPlanFeasible(t, shed, dcs, 300)
	if math.Abs(shed.LoadKW[1][0]-30) > 1e-9 {
		t.Errorf("mexico load after shed = %v, want 30", shed.LoadKW[1][0])
	}
	if math.Abs(shed.LoadKW[0][0]-270) > 1e-9 {
		t.Errorf("kenya load after shed = %v, want 270 untouched", shed.LoadKW[0][0])
	}
}
