package weather

import (
	"math"
	"slices"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Desert, 42)
	b := Generate(Desert, 42)
	for _, hr := range []int{0, 1000, 4999, hoursPerYear - 1} {
		if a.TemperatureC[hr] != b.TemperatureC[hr] {
			t.Fatalf("temperature differs at hour %d for identical seeds", hr)
		}
		if a.IrradianceWm2[hr] != b.IrradianceWm2[hr] {
			t.Fatalf("irradiance differs at hour %d for identical seeds", hr)
		}
		if a.WindSpeedMs[hr] != b.WindSpeedMs[hr] {
			t.Fatalf("wind differs at hour %d for identical seeds", hr)
		}
	}
	c := Generate(Desert, 43)
	if mean(a.TemperatureC) == mean(c.TemperatureC) && mean(a.WindSpeedMs) == mean(c.WindSpeedMs) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceLengthsAndBounds(t *testing.T) {
	for _, a := range allArchetypes {
		tr := Generate(a, 7)
		if len(tr.TemperatureC) != hoursPerYear {
			t.Fatalf("%v: temperature length %d", a, len(tr.TemperatureC))
		}
		if got := slices.Min(tr.IrradianceWm2); got < 0 {
			t.Errorf("%v: negative irradiance %v", a, got)
		}
		if got := slices.Max(tr.IrradianceWm2); got > 1200 {
			t.Errorf("%v: irradiance %v exceeds physical clear-sky bound", a, got)
		}
		if got := slices.Min(tr.WindSpeedMs); got < 0 {
			t.Errorf("%v: negative wind speed %v", a, got)
		}
		if got := slices.Max(tr.WindSpeedMs); got > 60 {
			t.Errorf("%v: implausible wind speed %v", a, got)
		}
		if got := mean(tr.TemperatureC); got < -30 || got > 40 {
			t.Errorf("%v: implausible mean temperature %v", a, got)
		}
		if got := mean(tr.PressureKPa); got < 75 || got > 105 {
			t.Errorf("%v: implausible mean pressure %v", a, got)
		}
	}
}

func TestIrradianceIsZeroAtNight(t *testing.T) {
	tr := Generate(Temperate, 11)
	// Local solar midnight: hour 0 every day must be dark at mid latitudes.
	for day := 0; day < 365; day += 30 {
		if v := tr.IrradianceWm2[day*24]; v != 0 {
			t.Errorf("day %d hour 0: irradiance %v, want 0", day, v)
		}
	}
	// And the brightest noon of the year must be genuinely bright.
	best := 0.0
	for day := 0; day < 365; day++ {
		if v := tr.IrradianceWm2[day*24+12]; v > best {
			best = v
		}
	}
	if best < 400 {
		t.Errorf("brightest noon irradiance %v looks too low", best)
	}
}

func TestArchetypeOrdering(t *testing.T) {
	// Ridge sites must be windier than desert sites; desert sites must be
	// sunnier and warmer than ridge sites.  These orderings are what the
	// placement results rely on (wind sites beat solar sites on capacity
	// factor, solar sites have higher PUE).
	const seeds = 5
	meanOver := func(a Archetype, f func(*Trace) float64) float64 {
		sum := 0.0
		for s := int64(0); s < seeds; s++ {
			sum += f(Generate(a, s))
		}
		return sum / seeds
	}
	ridgeWind := meanOver(Ridge, func(tr *Trace) float64 { return mean(tr.WindSpeedMs) })
	desertWind := meanOver(Desert, func(tr *Trace) float64 { return mean(tr.WindSpeedMs) })
	if ridgeWind <= desertWind+2 {
		t.Errorf("ridge wind %v should clearly exceed desert wind %v", ridgeWind, desertWind)
	}
	desertSun := meanOver(Desert, func(tr *Trace) float64 { return mean(tr.IrradianceWm2) })
	ridgeSun := meanOver(Ridge, func(tr *Trace) float64 { return mean(tr.IrradianceWm2) })
	if desertSun <= ridgeSun {
		t.Errorf("desert irradiance %v should exceed ridge irradiance %v", desertSun, ridgeSun)
	}
	desertTemp := meanOver(Desert, func(tr *Trace) float64 { return mean(tr.TemperatureC) })
	ridgeTemp := meanOver(Ridge, func(tr *Trace) float64 { return mean(tr.TemperatureC) })
	if desertTemp <= ridgeTemp+10 {
		t.Errorf("desert temperature %v should clearly exceed ridge temperature %v", desertTemp, ridgeTemp)
	}
}

func TestSeasonalTemperatureSwing(t *testing.T) {
	tr := Generate(Continental, 3)
	if tr.LatitudeDeg == 0 {
		t.Fatal("latitude not set")
	}
	// Compare mid-winter and mid-summer monthly means for the hemisphere.
	winterDay, summerDay := 15, 196
	if tr.LatitudeDeg < 0 {
		winterDay, summerDay = 196, 15
	}
	meanAround := func(center int) float64 {
		sum, n := 0.0, 0
		for d := center - 10; d <= center+10; d++ {
			for h := 0; h < 24; h++ {
				sum += tr.TemperatureC[(d+365)%365*24+h]
				n++
			}
		}
		return sum / float64(n)
	}
	winter := meanAround(winterDay)
	summer := meanAround(summerDay)
	if summer-winter < 10 {
		t.Errorf("continental seasonal swing too small: summer %v winter %v", summer, winter)
	}
}

// allArchetypes lists every defined archetype.
var allArchetypes = []Archetype{Desert, Temperate, Maritime, Ridge, Tropical, Continental, Polar}

func TestArchetypeString(t *testing.T) {
	if Desert.String() != "desert" {
		t.Errorf("Desert.String() = %q", Desert.String())
	}
	if Archetype(99).String() == "" {
		t.Error("unknown archetype should still produce a non-empty name")
	}
	for _, a := range allArchetypes {
		if archetypeNames[a] == "" {
			t.Errorf("archetype %d has no name", int(a))
		}
	}
}

func TestClearSkyIrradianceGeometry(t *testing.T) {
	// Noon beats morning, equator beats high latitude in winter, and night is dark.
	if clearSkyIrradiance(40, 172, 12) <= clearSkyIrradiance(40, 172, 8) {
		t.Error("noon irradiance should exceed morning irradiance")
	}
	if clearSkyIrradiance(0, 15, 12) <= clearSkyIrradiance(60, 15, 12) {
		t.Error("equatorial winter noon should beat 60° latitude winter noon")
	}
	if clearSkyIrradiance(40, 100, 0) != 0 {
		t.Error("midnight should have zero irradiance")
	}
	if math.IsNaN(clearSkyIrradiance(89, 0, 12)) {
		t.Error("polar irradiance must not be NaN")
	}
}

// TestTraceCacheRingEviction pins the cache's eviction policy: insertion-
// order FIFO, one entry at a time.  Cache hits are observable as pointer
// identity (Generate returns the shared cached *Trace), so the test checks
// that an old entry survives until exactly maxCachedTraces newer distinct
// keys have been inserted, and that the newest entries always survive a
// sweep — the property the old drop-the-whole-map policy lacked.
func TestTraceCacheRingEviction(t *testing.T) {
	const base = int64(9_000_000_000) // seeds no other test uses
	first := Generate(Desert, base)
	if Generate(Desert, base) != first {
		t.Fatal("immediate second Generate did not hit the cache")
	}
	// Fill the window with maxCachedTraces-1 more keys: first must survive
	// (it is at most maxCachedTraces-th oldest among our insertions).
	var last *Trace
	for i := int64(1); i < maxCachedTraces; i++ {
		last = Generate(Desert, base+i)
	}
	if Generate(Desert, base) != first {
		t.Fatal("entry evicted before the window filled past it")
	}
	// A full window of strictly newer keys must push out every older entry…
	for i := int64(maxCachedTraces); i < 2*maxCachedTraces; i++ {
		Generate(Desert, base+i)
	}
	if Generate(Desert, base) == first {
		t.Fatal("oldest entry survived a full window of newer insertions")
	}
	// …but the sweep evicts one-at-a-time: the (maxCachedTraces-1)-th key of
	// the first batch was still within the window during the second batch
	// only until its slot came around again — the newest second-batch keys,
	// though, are all still cached.
	if got := Generate(Desert, base+2*maxCachedTraces-1); got == nil {
		t.Fatal("nil trace")
	} else if Generate(Desert, base+2*maxCachedTraces-1) != got {
		t.Fatal("newest entry did not stay cached")
	}
	if len(traceCache.m) > maxCachedTraces {
		t.Fatalf("cache holds %d entries, cap is %d", len(traceCache.m), maxCachedTraces)
	}
	_ = last
}

func mean(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}
