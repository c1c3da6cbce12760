package location

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// yearOf returns an hourly year trace with fn(day, hour) at each hour.
func yearOf(fn func(day, hour int) float64) []float64 {
	out := make([]float64, HoursPerYear)
	for i := range out {
		out[i] = fn(i/HoursPerDay, i%HoursPerDay)
	}
	return out
}

func TestGridReducePreservesDiurnalShape(t *testing.T) {
	// Signal: value only depends on hour of day, so reduction must
	// reproduce it exactly regardless of the number of representative days.
	h := yearOf(func(day, hour int) float64 { return float64(hour * hour) })
	for _, days := range []int{1, 2, 4, 12} {
		reduced := make([]float64, days*HoursPerDay)
		reduce(reduced, h)
		for i, v := range reduced {
			hour := i % HoursPerDay
			if want := float64(hour * hour); math.Abs(v-want) > 1e-9 {
				t.Fatalf("days=%d epoch %d: reduce = %v, want %v", days, i, v, want)
			}
		}
	}
}

func TestGridReduceAveragesSeasons(t *testing.T) {
	// Signal rises linearly with day of year; a single representative day
	// must average to the yearly mean.
	h := yearOf(func(day, hour int) float64 { return float64(day) })
	reduced := make([]float64, HoursPerDay)
	reduce(reduced, h)
	want := 182.0 // mean of 0..364
	for i, v := range reduced {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("epoch %d: reduce = %v, want %v", i, v, want)
		}
	}
}

func TestReducePropertyMeanPreserved(t *testing.T) {
	// The weighted mean of the reduced series must equal the mean of the
	// hourly series for any signal (reduce is an averaging operator).
	const days = 5
	weight := 365.0 / days
	f := func(seed int64) bool {
		h := yearOf(func(day, hour int) float64 {
			x := float64(day*31+hour*7) + float64(seed%17)
			return math.Sin(x/53.0) * 10
		})
		reduced := make([]float64, days*HoursPerDay)
		reduce(reduced, h)
		total, sum := 0.0, 0.0
		for _, v := range reduced {
			total += v * weight
		}
		for _, v := range h {
			sum += v
		}
		return math.Abs(total-sum) < 1e-6*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestShiftHours(t *testing.T) {
	h := yearOf(func(day, hour int) float64 { return float64(day*24 + hour) })
	for _, k := range []int{0, 1, 5, HoursPerDay - 1} {
		shifted := slices.Clone(h)
		rotate(shifted, k)
		// UTC hour i reads local hour i+k, wrapping at the year's end.
		for i, v := range shifted {
			if want := h[(i+k)%HoursPerYear]; v != want {
				t.Fatalf("rotate by %d: hour %d = %v, want %v", k, i, v, want)
			}
		}
		// Rotating moves values; it never changes them.
		slices.Sort(shifted)
		if !slices.Equal(shifted, h) {
			t.Errorf("rotate by %d changed the set of values", k)
		}
	}
}

func TestGenerateAndStats(t *testing.T) {
	h := yearOf(func(day, hour int) float64 { return float64(hour) })
	if got := h[17*HoursPerDay+13]; got != 13 {
		t.Errorf("day 17 hour 13 = %v, want 13", got)
	}
	wantMean := 11.5 // mean of 0..23
	if got := mean(h); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
	if got := slices.Max(h); got != 23 {
		t.Errorf("max = %v, want 23", got)
	}
}

func TestNewGridValidation(t *testing.T) {
	for _, days := range []int{-3, -1, 366} {
		if _, err := Generate(Options{Count: 2, RepresentativeDays: days}); err == nil {
			t.Errorf("representative days %d should error", days)
		}
	}
	// Zero means the default; 1..365 are taken as given.
	for days, want := range map[int]int{0: DefaultRepresentativeDays, 1: 1, 4: 4, 365: 365} {
		cat, err := Generate(Options{Count: 2, RepresentativeDays: days})
		if err != nil {
			t.Errorf("representative days %d: %v", days, err)
			continue
		}
		if cat.Epochs() != want*HoursPerDay {
			t.Errorf("representative days %d: %d epochs, want %d", days, cat.Epochs(), want*HoursPerDay)
		}
	}
}

func TestGridShapeAndWeights(t *testing.T) {
	const days = 4
	cat, err := Generate(Options{Count: 2, Seed: 1, RepresentativeDays: days})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epochs() != days*HoursPerDay {
		t.Errorf("epochs = %d, want %d", cat.Epochs(), days*HoursPerDay)
	}
	// The epochs stand for the whole year.
	if hours := float64(cat.Epochs()) * cat.EpochWeight(); math.Abs(hours-HoursPerYear) > 1e-6 {
		t.Errorf("epochs represent %v hours, want %v", hours, HoursPerYear)
	}
	// Epochs are chronological: day-major, hour-minor.  A signal that
	// rises with every hour of the year must rise along the reduced row.
	h := yearOf(func(day, hour int) float64 { return float64(day*HoursPerDay + hour) })
	reduced := make([]float64, cat.Epochs())
	reduce(reduced, h)
	for i := 1; i < len(reduced); i++ {
		if reduced[i] <= reduced[i-1] {
			t.Fatalf("epochs are not chronological: epoch %d = %v after %v", i, reduced[i], reduced[i-1])
		}
	}
}
