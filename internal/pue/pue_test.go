package pue

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"greencloud/internal/weather"
)

func TestFromTemperatureKnots(t *testing.T) {
	cases := []struct {
		tempC float64
		want  float64
	}{
		{-10, 1.05},
		{0, 1.05},
		{15, 1.05},
		{25, 1.10},
		{45, 1.40},
		{60, 1.40},
	}
	for _, tc := range cases {
		if got := FromTemperature(tc.tempC); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("FromTemperature(%v) = %v, want %v", tc.tempC, got, tc.want)
		}
	}
}

func TestFromTemperatureInterpolates(t *testing.T) {
	// Halfway between the 25 °C and 30 °C knots.
	want := (1.10 + 1.155) / 2
	if got := FromTemperature(27.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("FromTemperature(27.5) = %v, want %v", got, want)
	}
}

func TestFromTemperatureMonotoneAndBounded(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 80) - 20
		b = math.Mod(math.Abs(b), 80) - 20
		lo, hi := math.Min(a, b), math.Max(a, b)
		pLo, pHi := FromTemperature(lo), FromTemperature(hi)
		if pLo > pHi+1e-12 {
			return false
		}
		return pLo >= curve[0].pue && pHi <= 1.40+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAverageInPaperRange(t *testing.T) {
	// Yearly average PUEs across climate archetypes should land in a range
	// compatible with the paper's 1.06–1.13 for its 1373 locations.  Allow a
	// slightly wider band because our synthetic tropics are hotter than the
	// paper's site mix.
	for _, a := range []weather.Archetype{weather.Desert, weather.Temperate, weather.Maritime, weather.Ridge, weather.Tropical, weather.Continental, weather.Polar} {
		pue := series(weather.Generate(a, 5).TemperatureC)
		avg := mean(pue)
		if avg < 1.05 || avg > 1.20 {
			t.Errorf("%v: average PUE %v outside plausible range", a, avg)
		}
		if slices.Max(pue) < avg-1e-6 {
			t.Errorf("%v: max PUE below average", a)
		}
	}
}

func TestColdSitesHaveLowerPUE(t *testing.T) {
	ridge := weather.Generate(weather.Ridge, 2)
	desert := weather.Generate(weather.Desert, 2)
	ridgePUE, desertPUE := mean(series(ridge.TemperatureC)), mean(series(desert.TemperatureC))
	if ridgePUE >= desertPUE {
		t.Errorf("ridge PUE %v should be below desert PUE %v", ridgePUE, desertPUE)
	}
}

func TestSeriesMatchesPointwise(t *testing.T) {
	temp := make([]float64, 365*24)
	for i := range temp {
		temp[i] = float64(i % 24)
	}
	s := series(temp)
	for _, hr := range []int{0, 12, 23, 5000} {
		if got, want := s[hr], FromTemperature(temp[hr]); got != want {
			t.Errorf("Series at %d = %v, want %v", hr, got, want)
		}
	}
}

// series returns the PUE trace of a temperature trace.
func series(temperatureC []float64) []float64 {
	out := make([]float64, len(temperatureC))
	Series(out, temperatureC)
	return out
}

func mean(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

func TestCurveSweep(t *testing.T) {
	temps, pues := Curve(15, 45, 5)
	if len(temps) != 7 || len(pues) != 7 {
		t.Fatalf("Curve returned %d/%d points, want 7", len(temps), len(pues))
	}
	if pues[0] != 1.05 || math.Abs(pues[6]-1.40) > 1e-9 {
		t.Errorf("Curve endpoints = %v, %v", pues[0], pues[6])
	}
	// Degenerate step must not loop forever and must still return points.
	temps, _ = Curve(10, 12, 0)
	if len(temps) != 3 {
		t.Errorf("Curve with zero step returned %d points, want 3", len(temps))
	}
}
