package timeseries

import (
	"math"
	"testing"
	"testing/quick"
)

// mustGrid builds a grid with a known-valid day count, failing the test
// instead of panicking (NewGrid is the only constructor; the package no
// longer exports a panicking variant).
func mustGrid(t *testing.T, representativeDays int) *Grid {
	t.Helper()
	g, err := NewGrid(representativeDays)
	if err != nil {
		t.Fatalf("NewGrid(%d): %v", representativeDays, err)
	}
	return g
}

func TestHourlyLenAndIndexing(t *testing.T) {
	h := NewHourly()
	if h.Len() != HoursPerYear {
		t.Fatalf("Len() = %d, want %d", h.Len(), HoursPerYear)
	}
	h.Set(0, 1.5)
	h.Set(HoursPerYear-1, -2.5)
	if got := h.values[0]; got != 1.5 {
		t.Errorf("At(0) = %v, want 1.5", got)
	}
	if got := h.values[HoursPerYear-1]; got != -2.5 {
		t.Errorf("At(last) = %v, want -2.5", got)
	}
	if got := h.AtDayHour(364, 23); got != -2.5 {
		t.Errorf("AtDayHour(364,23) = %v, want -2.5", got)
	}
}

func TestGenerateAndStats(t *testing.T) {
	h := Generate(func(day, hour int) float64 {
		return float64(hour)
	})
	if got := h.AtDayHour(17, 13); got != 13 {
		t.Errorf("AtDayHour(17,13) = %v, want 13", got)
	}
	wantMean := 11.5 // mean of 0..23
	if got := h.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("Mean() = %v, want %v", got, wantMean)
	}
	if got := h.Max(); got != 23 {
		t.Errorf("Max() = %v, want 23", got)
	}
}

func TestMapAndValuesCopy(t *testing.T) {
	h := Generate(func(day, hour int) float64 { return 2 })
	doubled := h.Map(func(v float64) float64 { return v * 3 })
	if doubled.values[0] != 6 {
		t.Errorf("Map result = %v, want 6", doubled.values[0])
	}
	if h.values[0] != 2 {
		t.Errorf("Map mutated the receiver")
	}
	vals := h.Values()
	vals[0] = 99
	if h.values[0] != 2 {
		t.Errorf("Values() exposed internal state")
	}
}

func TestNewGridValidation(t *testing.T) {
	cases := []struct {
		days    int
		wantErr bool
	}{
		{days: 0, wantErr: true},
		{days: -3, wantErr: true},
		{days: 366, wantErr: true},
		{days: 1, wantErr: false},
		{days: 4, wantErr: false},
		{days: 365, wantErr: false},
	}
	for _, tc := range cases {
		_, err := NewGrid(tc.days)
		if (err != nil) != tc.wantErr {
			t.Errorf("NewGrid(%d) error = %v, wantErr %v", tc.days, err, tc.wantErr)
		}
	}
}

func TestGridShapeAndWeights(t *testing.T) {
	g := mustGrid(t, 4)
	if g.days != 4 {
		t.Errorf("days = %d, want 4", g.days)
	}
	if g.Len() != 4*HoursPerDay {
		t.Errorf("Len() = %d, want %d", g.Len(), 4*HoursPerDay)
	}
	hours := 0.0
	for _, e := range g.epochs {
		hours += e.Weight
	}
	if want := float64(HoursPerYear); math.Abs(hours-want) > 1e-6 {
		t.Errorf("grid represents %v hours, want %v", hours, want)
	}
	// Epochs must be chronological: day-major, hour-minor.
	prevDay, prevHour := -1, -1
	for _, e := range g.Epochs() {
		if e.Day < prevDay || (e.Day == prevDay && e.Hour != prevHour+1) {
			t.Fatalf("epochs are not chronological: day=%d hour=%d after day=%d hour=%d",
				e.Day, e.Hour, prevDay, prevHour)
		}
		if e.Day != prevDay {
			if e.Hour != 0 {
				t.Fatalf("representative day %d does not start at hour 0", e.Day)
			}
		}
		prevDay, prevHour = e.Day, e.Hour
	}
}

func TestGridReducePreservesDiurnalShape(t *testing.T) {
	// Signal: value only depends on hour of day, so reduction must
	// reproduce it exactly regardless of the number of representative days.
	h := Generate(func(day, hour int) float64 { return float64(hour * hour) })
	for _, days := range []int{1, 2, 4, 12} {
		g := mustGrid(t, days)
		reduced := g.Reduce(h)
		for i, e := range g.Epochs() {
			want := float64(e.Hour * e.Hour)
			if math.Abs(reduced[i]-want) > 1e-9 {
				t.Fatalf("days=%d epoch %d: Reduce = %v, want %v", days, i, reduced[i], want)
			}
		}
	}
}

func TestGridReduceAveragesSeasons(t *testing.T) {
	// Signal rises linearly with day of year; a single representative day
	// must average to the yearly mean.
	h := Generate(func(day, hour int) float64 { return float64(day) })
	g := mustGrid(t, 1)
	reduced := g.Reduce(h)
	want := 182.0 // mean of 0..364
	for i, v := range reduced {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("epoch %d: Reduce = %v, want %v", i, v, want)
		}
	}
}

func TestCDF(t *testing.T) {
	sorted, pct := CDF([]float64{3, 1, 2, 4})
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
		sorted, pct := CDF(values)
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

func TestReducePropertyMeanPreserved(t *testing.T) {
	// The weighted mean of the reduced series must equal the mean of the
	// hourly series for any signal (Reduce is an averaging operator).
	f := func(seed int64) bool {
		h := Generate(func(day, hour int) float64 {
			x := float64(day*31+hour*7) + float64(seed%17)
			return math.Sin(x/53.0) * 10
		})
		g := mustGrid(t, 5)
		total, sum := 0.0, 0.0
		for i, v := range g.Reduce(h) {
			total += v * g.epochs[i].Weight
		}
		for _, v := range h.values {
			sum += v
		}
		return math.Abs(total-sum) < 1e-6*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestShiftHours(t *testing.T) {
	h := Generate(func(day, hour int) float64 { return float64(day*24 + hour) })
	shifted := h.ShiftHours(5)
	if got, want := shifted.values[5], h.values[0]; got != want {
		t.Errorf("ShiftHours(5): At(5) = %v, want %v", got, want)
	}
	if got, want := shifted.values[0], h.values[HoursPerYear-5]; got != want {
		t.Errorf("ShiftHours(5): At(0) = %v, want %v (wraps)", got, want)
	}
	// Negative shift is the inverse of a positive shift.
	back := shifted.ShiftHours(-5)
	for _, hr := range []int{0, 100, HoursPerYear - 1} {
		if back.values[hr] != h.values[hr] {
			t.Fatalf("shift and unshift differ at hour %d", hr)
		}
	}
	// Shifting never changes the mean.
	if math.Abs(shifted.Mean()-h.Mean()) > 1e-9 {
		t.Error("ShiftHours changed the mean")
	}
	// Full-period shift is identity.
	same := h.ShiftHours(HoursPerYear)
	if same.values[42] != h.values[42] {
		t.Error("full-period shift should be identity")
	}
}
