package weather

import (
	"math"
	"slices"
	"testing"

	"greencloud/internal/series"
)

// TestGenerateDeterministic holds two independent Generate calls for the
// same (archetype, seed) to each other bit for bit, on all four series and
// the latitude, and checks that a different seed gives a different trace.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(Desert, 42), Generate(Desert, 42)
	if a == b {
		t.Fatal("two Generate calls returned the same *Trace")
	}
	if got, want := traceBits(b, Desert, 42), traceBits(a, Desert, 42); got != want {
		t.Fatalf("identical seeds gave different traces:\n got  %#x\n want %#x", got, want)
	}
	c := Generate(Desert, 43)
	if mean(a.TemperatureC) == mean(c.TemperatureC) && mean(a.WindSpeedMs) == mean(c.WindSpeedMs) {
		t.Error("different seeds produced identical traces")
	}
}

// traceBits returns the series.Digest of the temperature, irradiance, wind
// and pressure series of tr, the (a, seed) trace, then the
// math.Float64bits of its site's latitude.
func traceBits(tr *Trace, a Archetype, seed int64) [5]uint64 {
	return [5]uint64{
		series.Digest(tr.TemperatureC), series.Digest(tr.IrradianceWm2),
		series.Digest(tr.WindSpeedMs), series.Digest(tr.PressureKPa),
		math.Float64bits(latitude(a, seed)),
	}
}

// latitude returns the signed latitude of the (a, seed) trace's site.
func latitude(a Archetype, seed int64) float64 {
	_, lat := siteDraws(a, seed, archetypeParams(a))
	return lat
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
	tr, lat := Generate(Continental, 3), latitude(Continental, 3)
	if lat == 0 {
		t.Fatal("latitude not drawn")
	}
	// Compare mid-winter and mid-summer monthly means for the hemisphere.
	winterDay, summerDay := 15, 196
	if lat < 0 {
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

// clearSkyReference is the clear-sky model evaluated call by call, every
// angle and its trigonometry computed in place: the generator's original
// form, kept as the reference the table-driven clearSkyIrradiance must
// match bit for bit.
func clearSkyReference(latitudeDeg float64, day, hour int) float64 {
	const solarConstant = 1361.0 // W/m²
	latRad := latitudeDeg * math.Pi / 180
	// Solar declination (Cooper's equation).
	decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*float64(284+day+1)/365)
	// Hour angle: solar noon at hour 12.
	hourAngle := (float64(hour) - 12) * 15 * math.Pi / 180
	cosZenith := math.Sin(latRad)*math.Sin(decl) + math.Cos(latRad)*math.Cos(decl)*math.Cos(hourAngle)
	if cosZenith <= 0 {
		return 0
	}
	// Simple clear-sky transmittance, with a mild air-mass penalty at low sun.
	transmittance := 0.75 * math.Pow(cosZenith, 0.15)
	return solarConstant * cosZenith * transmittance
}

func TestClearSkyIrradianceGeometry(t *testing.T) {
	// Noon beats morning, equator beats high latitude in winter, and night is dark.
	if clearSkyReference(40, 172, 12) <= clearSkyReference(40, 172, 8) {
		t.Error("noon irradiance should exceed morning irradiance")
	}
	if clearSkyReference(0, 15, 12) <= clearSkyReference(60, 15, 12) {
		t.Error("equatorial winter noon should beat 60° latitude winter noon")
	}
	if clearSkyReference(40, 100, 0) != 0 {
		t.Error("midnight should have zero irradiance")
	}
	if math.IsNaN(clearSkyReference(89, 0, 12)) {
		t.Error("polar irradiance must not be NaN")
	}
}

// TestClearSkyTablesMatchReference holds the table-driven clear sky to the
// per-call reference bit for bit at every day and hour of the year, across
// both hemispheres, the tropics and the polar circles.
func TestClearSkyTablesMatchReference(t *testing.T) {
	for _, lat := range []float64{-89, -45, -23.5, 0, 23.5, 45, 64, 89} {
		latRad := lat * math.Pi / 180
		sinLat, cosLat := math.Sin(latRad), math.Cos(latRad)
		for d := 0; d < 365; d++ {
			for h := 0; h < 24; h++ {
				got, want := clearSkyIrradiance(sinLat, cosLat, d, h), clearSkyReference(lat, d, h)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lat %v day %d hour %d: tables give %v (%#x), reference %v (%#x)",
						lat, d, h, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// traceGolden pins Generate for every archetype at two seeds: the
// series.Digest of the hourly temperature, irradiance, wind and pressure
// series, then the math.Float64bits of the latitude.  The values were
// recorded from the generator that evaluated its trigonometry call by call
// in the hourly loop, before it was rewritten onto precomputed tables.
var traceGolden = []struct {
	a    Archetype
	seed int64
	want [5]uint64
}{
	{Desert, 3, [5]uint64{0x837925e55937e830, 0x1bbe69ddb3dda99e, 0xc64078502d4caae8, 0x9f8d76ac6346172e, 0x4038f2d10e677739}},
	{Desert, 1000017, [5]uint64{0x9b6338db677f243e, 0x202f087fc90bbbaf, 0x6397bb56ea5062b2, 0xef9e9db1da427a53, 0x403ad7204d98f787}},
	{Temperate, 3, [5]uint64{0x5c13f85637ffc292, 0xf9f7fff111e5691f, 0xd6d6ea4b41a54655, 0x1a94157ac8099477, 0x40480356d02b20d6}},
	{Temperate, 1000017, [5]uint64{0xabc66d7f57531878, 0x7fa96339d9e48330, 0x39276c7bbf8904bd, 0xf92e4632ab3080f4, 0x4048bf8d9ca5721a}},
	{Maritime, 3, [5]uint64{0x8bda31675e6c540b, 0x18e21bc38ec8ebca, 0x6005a11d3ce4d73e, 0x60f259b2f5bdd87c, 0x4046dcbdf3d412ba}},
	{Maritime, 1000017, [5]uint64{0x97adc6f7f63f97fb, 0x16d079d507a361a8, 0xf05a0424a07a76da, 0xbfa0cca7600c6107, 0x4046965f90a68b0d}},
	{Ridge, 3, [5]uint64{0x8f2bc112ab6217ae, 0x46eb57aaf74b1458, 0xe11c868c8716adad, 0xa27ba5b4f988f008, 0xc04764ed2da74da9}},
	{Ridge, 1000017, [5]uint64{0x1b28add9370af3eb, 0x66fdcece9d038556, 0xa7afddff73486b81, 0xf4b3680fe25e2d8e, 0xc047094442a36da4}},
	{Tropical, 3, [5]uint64{0xe4f1554011f9c706, 0xd908505481562300, 0xa2b4fbbf0a6504e2, 0x24b20e97e1d3c428, 0xc0323467e78f841a}},
	{Tropical, 1000017, [5]uint64{0x56702a70e0096771, 0x11cc40f3b8d245a8, 0x2468ac9a42ab10e0, 0x8199a22b8f9b16a5, 0xc032111d9c24539c}},
	{Continental, 3, [5]uint64{0x5f619e2777ea8c3b, 0xb89084a0c8519a0e, 0x206def78221969ee, 0x7288901611c09a4c, 0x40451e8a648b968a}},
	{Continental, 1000017, [5]uint64{0x13dda1047711a5c3, 0xa9712b40a3d5eb59, 0x495292298ea00f5e, 0x3939d380146a389d, 0x4044d153895b14d9}},
	{Polar, 3, [5]uint64{0xe7c817e75fcb0b43, 0x845913f0460713f2, 0x6c443ca59a655854, 0x199fe74f31c86947, 0x404ff68a2eea3d16}},
	{Polar, 1000017, [5]uint64{0x979c012b313c5fc0, 0x02608726387cd663, 0xc9eb0bbd9f0631fa, 0x02d38bba7db7974d, 0x40503fc268e52a27}},
}

// TestTraceGolden holds the raw weather traces bit for bit, below the
// catalog's reductions.  A failure means generated weather changed, and
// every catalog with it, so never re-record it to make it pass.
func TestTraceGolden(t *testing.T) {
	for _, g := range traceGolden {
		if got := traceBits(Generate(g.a, g.seed), g.a, g.seed); got != g.want {
			t.Errorf("%v seed %d:\n got  %#x\n want %#x", g.a, g.seed, got, g.want)
		}
	}
}

func mean(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}
