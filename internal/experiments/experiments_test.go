package experiments

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"greencloud/internal/core"
	"greencloud/internal/energy"
)

// The full experiment suite is exercised by the benchmarks in the repository
// root; these tests cover the cheap experiments, the caching machinery and
// the error paths so `go test` stays fast.

func testSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(Config{Budget: Quick, Seed: 1})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	return s
}

func TestCheapCharacterizationExperiments(t *testing.T) {
	s := testSuite(t)
	for _, id := range []string{"fig3", "fig4", "fig5"} {
		table, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if table.ID != id {
			t.Errorf("%s: table ID = %s", id, table.ID)
		}
		if len(table.Rows) == 0 || len(table.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if !strings.Contains(table.String(), table.Title) {
			t.Errorf("%s: String() does not include the title", id)
		}
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	s := testSuite(t)
	table, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// At the median location solar beats wind; at the very top of the
	// distribution wind beats solar (the small set of exceptional wind
	// sites in Fig. 3).
	var medianSolar, medianWind, topSolar, topWind float64
	for _, row := range table.Rows {
		switch row[0] {
		case "50":
			medianSolar = parse(t, row[1])
			medianWind = parse(t, row[2])
		case "100":
			topSolar = parse(t, row[1])
			topWind = parse(t, row[2])
		}
	}
	if medianSolar <= medianWind {
		t.Errorf("median solar CF %.1f should exceed median wind CF %.1f", medianSolar, medianWind)
	}
	if topWind <= topSolar {
		t.Errorf("top wind CF %.1f should exceed top solar CF %.1f", topWind, topSolar)
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestSchedulerTimingSubSecond(t *testing.T) {
	s := testSuite(t)
	table, err := s.SchedulerTiming()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	for _, row := range table.Rows {
		ms := parse(t, row[3])
		// The paper reports 0.16–0.78 s; anything up to a few seconds on
		// the unoptimized dense simplex is acceptable, but minutes are not.
		if ms <= 0 || ms > 10_000 {
			t.Errorf("%s: schedule time %.0f ms out of the acceptable range", row[0], ms)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Run("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
	if len(IDs()) < 16 {
		t.Errorf("IDs() lists %d experiments, want the full evaluation", len(IDs()))
	}
	for _, id := range IDs() {
		if id == "" {
			t.Error("empty experiment ID")
		}
	}
}

func TestWarmSweepDeterministic(t *testing.T) {
	// The warm-started sweep must produce a full series and stay
	// deterministic: two suites with the same seed agree point for point.
	if testing.Short() {
		t.Skip("sweeps solve several networks; skipped in -short mode")
	}
	runSweep := func() []sweepPoint {
		s, err := NewSuite(Config{Budget: Quick, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.solveSweep(energy.NetMetering, core.SolarAndWind)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	warm, warmAgain := runSweep(), runSweep()
	if len(warm) != len(warmAgain) || len(warm) == 0 {
		t.Fatalf("sweep lengths differ: %d vs %d", len(warm), len(warmAgain))
	}
	for i := range warm {
		if warm[i].monthlyUSD <= 0 {
			t.Errorf("point %d: warm-started sweep produced no solution", i)
		}
		if warm[i].greenPct != warmAgain[i].greenPct || warm[i].monthlyUSD != warmAgain[i].monthlyUSD {
			t.Errorf("point %d: warm-started sweep is not deterministic (%v%% %v vs %v%% %v)",
				i, warm[i].greenPct, warm[i].monthlyUSD, warmAgain[i].greenPct, warmAgain[i].monthlyUSD)
		}
	}
}

func TestCancelledSuiteStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSuite(Config{Budget: Quick, Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	// The sweeps refuse to cache or return partial series under cancellation.
	if _, err := s.solveSweep(energy.NetMetering, core.SolarAndWind); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep: err = %v, want a context.Canceled chain", err)
	}
	// All stops before the first experiment and reports which one it skipped.
	tables, err := s.All()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled All: err = %v, want a context.Canceled chain", err)
	}
	if len(tables) != 0 {
		t.Errorf("cancelled All returned %d tables, want 0", len(tables))
	}
}

func TestSuiteDefaults(t *testing.T) {
	s, err := NewSuite(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.catalog.Len() == 0 {
		t.Error("default suite has an empty catalog")
	}
	if s.cfg.Budget != Quick {
		t.Errorf("default budget = %v, want Quick", s.cfg.Budget)
	}
	full := Config{Budget: Full}
	if full.catalogSize() != 1373 {
		t.Errorf("full catalog size = %d, want 1373", full.catalogSize())
	}
	if len(full.greenLevels()) != 5 {
		t.Errorf("full sweep should use 5 green levels")
	}
}

func TestCDF(t *testing.T) {
	sorted, pct := cdf([]float64{3, 1, 2, 4})
	wantSorted := []float64{1, 2, 3, 4}
	wantPct := []float64{25, 50, 75, 100}
	for i := range wantSorted {
		if sorted[i] != wantSorted[i] {
			t.Errorf("sorted[%d] = %v, want %v", i, sorted[i], wantSorted[i])
		}
		if math.Abs(pct[i]-wantPct[i]) > 1e-9 {
			t.Errorf("pct[%d] = %v, want %v", i, pct[i], wantPct[i])
		}
	}
}

func TestCDFPropertySortedAndBounded(t *testing.T) {
	f := func(values []float64) bool {
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				values[i] = 0
			}
		}
		sorted, pct := cdf(values)
		if len(sorted) != len(values) || len(pct) != len(values) {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i] < sorted[i-1] || pct[i] < pct[i-1] {
				return false
			}
		}
		if len(pct) > 0 && math.Abs(pct[len(pct)-1]-100) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
