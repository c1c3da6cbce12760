package emul

import (
	"math"
	"testing"

	"greencloud/internal/lp"
	"greencloud/internal/sched"
)

// copyRecords snapshots a tick's scratch-aliased records with the
// non-deterministic wall-clock field zeroed.
func copyRecords(tick *Tick) []HourRecord {
	out := append([]HourRecord(nil), tick.Records...)
	for i := range out {
		out[i].SchedulerNanos = 0
	}
	return out
}

// TestStepMatchesRun pins the streamed API against the batch path: a manual
// Start + Step loop must produce the exact Result Run produces.
func TestStepMatchesRun(t *testing.T) {
	cfg := testConfig(t, 24)
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	streamed := &Result{}
	for i := 0; i < cfg.Hours; i++ {
		tick, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if tick.Index != i {
			t.Fatalf("tick %d reported index %d", i, tick.Index)
		}
		if tick.Plan == nil {
			t.Fatalf("tick %d carries no plan", i)
		}
		streamed.Accumulate(tick)
	}
	if streamed.TotalDemandKWh > 0 {
		streamed.GreenFraction = streamed.TotalGreenKWh / streamed.TotalDemandKWh
	}
	sameResult(t, "batch vs streamed", batch, streamed)
}

// TestReplayMatchesStep pins the snapshot-restore substrate: replaying the
// recorded migration schedules against a fresh Start reproduces the exact
// per-hour records and leaves the runner in a state from which a warm Step
// (using the recording runner's basis) continues bit-identically, with zero
// cold fallbacks.
func TestReplayMatchesStep(t *testing.T) {
	cfg := testConfig(t, 24)
	live, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	const split = 12 // replay this many ticks, then resume stepping
	var schedules [][]sched.Migration
	var liveRecords [][]HourRecord
	var splitBasis *lp.Basis
	totalCold := 0
	for i := 0; i < cfg.Hours; i++ {
		tick, err := live.Step()
		if err != nil {
			t.Fatal(err)
		}
		totalCold += tick.LPStats.ColdFallbacks
		if i < split {
			schedules = append(schedules, append([]sched.Migration(nil), tick.Moves...))
		}
		liveRecords = append(liveRecords, copyRecords(tick))
		if i == split-1 {
			// A Basis is immutable once captured, so the split-point basis
			// can be held across the rest of the live run — exactly what a
			// snapshot persists.
			if splitBasis = live.WarmBasis(); splitBasis == nil {
				t.Fatal("no warm basis to snapshot at the split point")
			}
		}
	}
	if totalCold != 0 {
		t.Fatalf("live run had %d cold fallbacks, want 0", totalCold)
	}

	resumed, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Start(); err != nil {
		t.Fatal(err)
	}
	for i, moves := range schedules {
		tick, err := resumed.Replay(moves)
		if err != nil {
			t.Fatal(err)
		}
		if tick.Plan != nil || tick.SchedulerNanos != 0 {
			t.Fatalf("replay tick %d did planning work", i)
		}
		got := copyRecords(tick)
		for j := range got {
			if got[j] != liveRecords[i][j] {
				t.Fatalf("replay tick %d record %d differs:\n  live=%+v\n  rep =%+v", i, j, liveRecords[i][j], got[j])
			}
		}
	}
	if resumed.hour != split {
		t.Fatalf("resumed at tick %d, want %d", resumed.hour, split)
	}

	// Warm handoff: install the basis the live runner carried at the split
	// and keep stepping; every subsequent tick must match the live run
	// bit-for-bit with zero cold fallbacks.  (Without the handoff the first
	// resumed solve would be cold — still correct, but not warm.)
	resumed.SetWarmBasis(splitBasis)
	for i := split; i < cfg.Hours; i++ {
		tick, err := resumed.Step()
		if err != nil {
			t.Fatal(err)
		}
		if tick.LPStats.ColdFallbacks != 0 {
			t.Fatalf("resumed tick %d fell back cold", i)
		}
		got := copyRecords(tick)
		for j := range got {
			if got[j] != liveRecords[i][j] {
				t.Fatalf("resumed tick %d record %d differs:\n  live=%+v\n  res =%+v", i, j, liveRecords[i][j], got[j])
			}
		}
	}
}

// TestGreenScaleStreaming pins the streamed-weather path: scaling a site's
// green production changes forecasts and realized green coherently, scale 1
// is bit-identical to the untouched trace, and the adjustment is a pure RHS
// rewrite — the warm chain never falls back cold.
func TestGreenScaleStreaming(t *testing.T) {
	cfg := testConfig(t, 12)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := cfg.Datacenters[0].Name
	if err := r.SetGreenScale(name, 1); err != nil {
		t.Fatal(err)
	}
	unit, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "scale-1 vs untouched", base, unit)

	if err := r.SetGreenScale(name, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	cold := 0
	diff := false
	for i := 0; i < cfg.Hours; i++ {
		tick, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			cold += tick.LPStats.ColdFallbacks
		}
		if tick.Records[0].GreenKW != base.Trace[i*len(cfg.Datacenters)].GreenKW {
			diff = true
		}
	}
	if !diff {
		t.Fatal("green scale 0.25 never changed the scaled site's realized green")
	}
	if cold != 0 {
		t.Fatalf("scaled warm chain had %d cold fallbacks", cold)
	}

	if err := r.SetGreenScale("no-such-dc", 1); err == nil {
		t.Error("unknown datacenter accepted")
	}
	if err := r.SetGreenScale(name, -1); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestReplayMultiDestinationTick drives the executor with hand-built
// schedules the scheduler never produces: one tick whose moves go to two
// destinations (every recorded workload has at most one per tick), and
// schedules that make a datacenter both send and receive, which are
// rejected before any VM moves.
func TestReplayMultiDestinationTick(t *testing.T) {
	cfg := testConfig(t, 4)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	names := r.Datacenters()
	moves := []sched.Migration{
		{VM: cfg.VMs[0], From: names[0], To: names[1]},
		{VM: cfg.VMs[1], From: names[0], To: names[2]},
		{VM: cfg.VMs[2], From: names[0], To: names[1]},
	}
	tick, err := r.Replay(moves)
	if err != nil {
		t.Fatal(err)
	}
	if tick.Migrations != 3 {
		t.Errorf("Migrations = %d, want 3", tick.Migrations)
	}
	wantOut, wantIn, wantVMs := []int{3, 0, 0}, []int{0, 2, 1}, []int{6, 2, 1}
	for i, rec := range tick.Records {
		if rec.MigrationsOut != wantOut[i] || rec.MigrationsIn != wantIn[i] || rec.VMCount != wantVMs[i] {
			t.Errorf("datacenter %d: out/in/VMs = %d/%d/%d, want %d/%d/%d", i,
				rec.MigrationsOut, rec.MigrationsIn, rec.VMCount, wantOut[i], wantIn[i], wantVMs[i])
		}
	}
	// Every move is charged at both ends, so the donor's migration energy
	// is the receivers' sum.
	donor := tick.Records[0].MigrationKW
	receivers := tick.Records[1].MigrationKW + tick.Records[2].MigrationKW
	if donor <= 0 || math.Abs(donor-receivers) > 1e-12*donor {
		t.Errorf("donor MigrationKW %v, receivers' sum %v", donor, receivers)
	}
	want := copyRecords(tick)
	if _, err := r.Step(); err != nil {
		t.Fatalf("Step after a multi-destination replay: %v", err)
	}

	for i, bad := range [][]sched.Migration{
		{{VM: cfg.VMs[3], From: names[0], To: names[0]}},
		{{VM: cfg.VMs[3], From: names[0], To: names[1]}, {VM: cfg.VMs[3], From: names[1], To: names[2]}},
	} {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replay(bad); err == nil {
			t.Errorf("bad schedule %d accepted", i)
			continue
		}
		tick, err := r.Replay(moves)
		if err != nil {
			t.Fatalf("replay after bad schedule %d: %v", i, err)
		}
		for j, rec := range copyRecords(tick) {
			if rec != want[j] {
				t.Errorf("after bad schedule %d, record %d = %+v, want %+v", i, j, rec, want[j])
			}
		}
	}
}
