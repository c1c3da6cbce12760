package emul

import (
	"runtime"
	"testing"
)

// stripNanos zeroes the wall-clock fields so results can be compared
// bitwise; everything else in a Result is deterministic.
func stripNanos(res *Result) {
	res.AvgScheduleNanos = 0
	for i := range res.Trace {
		res.Trace[i].SchedulerNanos = 0
	}
}

// sameResult compares two Results field by field (after stripNanos) and
// reports the first difference.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	stripNanos(a)
	stripNanos(b)
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace row %d differs:\n  a=%+v\n  b=%+v", label, i, a.Trace[i], b.Trace[i])
		}
	}
	if a.TotalGreenKWh != b.TotalGreenKWh || a.TotalBrownKWh != b.TotalBrownKWh ||
		a.TotalDemandKWh != b.TotalDemandKWh || a.TotalMigrationKWh != b.TotalMigrationKWh ||
		a.Migrations != b.Migrations || a.GreenFraction != b.GreenFraction {
		t.Fatalf("%s: summary differs:\n  a=%+v\n  b=%+v", label, a, b)
	}
}

// TestParallelPipelineMatchesSequential pins the migration-execution
// pipeline's determinism: per-destination sharding with an ordered merge
// must make any parallelism level bit-identical to sequential execution.
// Run under -race by make test.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 24)
	cfg.Parallelism = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 2 * runtime.GOMAXPROCS(0)
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Migrations == 0 {
		t.Fatal("test config produced no migrations; determinism check is vacuous")
	}
	sameResult(t, "sequential vs parallel", seq, par)
}

// TestRunnerReuseAcrossRuns pins the Runner's scratch hygiene: a second
// Run on the same Runner (reused traces, scheduler LP structure, scratch
// blocks, fleets) must be bit-identical to the first.
func TestRunnerReuseAcrossRuns(t *testing.T) {
	r, err := NewRunner(testConfig(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "first vs second run", first, second)
}
