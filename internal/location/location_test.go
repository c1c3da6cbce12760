package location

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"greencloud/internal/series"
	"greencloud/internal/weather"
)

func TestSolarAlphaBasics(t *testing.T) {
	if got := SolarAlpha(0, 25); got != 0 {
		t.Errorf("SolarAlpha(0,25) = %v, want 0", got)
	}
	if got := SolarAlpha(-10, 25); got != 0 {
		t.Errorf("SolarAlpha(-10,25) = %v, want 0", got)
	}
	// At STC-ish conditions (1000 W/m², cool ambient so cell ≈ 25 °C is
	// impossible outdoors; just check the value is large but ≤ 1).
	v := SolarAlpha(1000, 20)
	if v <= 0.6 || v > 1 {
		t.Errorf("SolarAlpha(1000,20) = %v, want in (0.6, 1]", v)
	}
	// Hot weather derates output.
	if SolarAlpha(800, 45) >= SolarAlpha(800, 5) {
		t.Error("hot ambient should derate PV output")
	}
}

func TestSolarAlphaPropertyBounds(t *testing.T) {
	f := func(irr, temp float64) bool {
		irr = math.Mod(math.Abs(irr), 1400)
		temp = math.Mod(temp, 60)
		a := SolarAlpha(irr, temp)
		return a >= 0 && a <= 1 && !math.IsNaN(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindBetaPowerCurve(t *testing.T) {
	const p, tc = 100.0, 15.0
	if got := WindBeta(2.0, p, tc); got != 0 {
		t.Errorf("below cut-in: beta = %v, want 0", got)
	}
	if got := WindBeta(30.0, p, tc); got != 0 {
		t.Errorf("above cut-out: beta = %v, want 0", got)
	}
	rated := WindBeta(15.0, p, tc)
	if rated < 0.85 || rated > 1 {
		t.Errorf("rated-speed beta = %v, want near 1", rated)
	}
	mid := WindBeta(8.0, p, tc)
	if mid <= 0 || mid >= rated {
		t.Errorf("mid-speed beta = %v, want between 0 and rated %v", mid, rated)
	}
	// Monotone between cut-in and rated.
	prev := 0.0
	for v := windCutInMs; v < windRatedMs; v += 0.5 {
		b := WindBeta(v, p, tc)
		if b < prev {
			t.Fatalf("beta not monotone at %v m/s", v)
		}
		prev = b
	}
	// Thinner air (high altitude / hot) produces less.
	if WindBeta(9, 85, 25) >= WindBeta(9, 101, 0) {
		t.Error("lower air density should reduce wind output")
	}
}

func TestWindBetaPropertyBounds(t *testing.T) {
	f := func(v, pr, tc float64) bool {
		v = math.Mod(math.Abs(v), 40)
		pr = 80 + math.Mod(math.Abs(pr), 25)
		tc = math.Mod(tc, 50)
		b := WindBeta(v, pr, tc)
		return b >= 0 && b <= 1 && !math.IsNaN(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// windBetaReference is WindBeta with its cubic ramp evaluated by
// math.Pow, the form the cube x*x*x replaced.
func windBetaReference(windMs, pressureKPa, tempC float64) float64 {
	if windMs < windCutInMs || windMs >= windCutOutMs {
		return 0
	}
	density := pressureKPa * 1000 / (gasConstantDryAir * (tempC + 273.15))
	densityRatio := density / standardAirDensity
	var frac float64
	if windMs >= windRatedMs {
		frac = 1
	} else {
		frac = math.Pow((windMs-windCutInMs)/(windRatedMs-windCutInMs), 3)
	}
	beta := frac * densityRatio * windSystemLoss
	if beta > 1 {
		beta = 1
	}
	return beta
}

// TestWindBetaCubeMatchesPow holds WindBeta to its math.Pow reference bit
// for bit over a dense sweep of the cubic ramp [cut-in, rated) with a
// margin on either side, plus the 32 representable speeds at each end of
// the ramp.
func TestWindBetaCubeMatchesPow(t *testing.T) {
	const n = 1 << 20
	speeds := make([]float64, 0, n+64)
	for i := 0; i < n; i++ {
		speeds = append(speeds, windCutInMs-0.5+float64(i)*(windRatedMs-windCutInMs+1)/n)
	}
	lo, hi := float64(windCutInMs), float64(windRatedMs)
	for i := 0; i < 32; i++ {
		speeds = append(speeds, lo, hi)
		lo, hi = math.Nextafter(lo, math.Inf(1)), math.Nextafter(hi, 0)
	}
	for _, c := range []struct{ pressureKPa, tempC float64 }{{100, 15}, {85, -20}, {101.3, 35}} {
		for _, v := range speeds {
			got, want := WindBeta(v, c.pressureKPa, c.tempC), windBetaReference(v, c.pressureKPa, c.tempC)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("WindBeta(%v, %v, %v) = %v (%#x), Pow reference %v (%#x)",
					v, c.pressureKPa, c.tempC, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestGenerateCatalogSmall(t *testing.T) {
	cat, err := Generate(Options{Count: 60, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if cat.Len() != 60 {
		t.Fatalf("Len() = %d, want 60", cat.Len())
	}
	if cat.Epochs() != 2*HoursPerDay {
		t.Errorf("epochs = %d, want 2 days of %d", cat.Epochs(), HoursPerDay)
	}
	seen := map[string]bool{}
	for _, s := range cat.Sites() {
		if seen[s.Name] {
			t.Errorf("duplicate site name %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Alpha) != cat.Epochs() || len(s.Beta) != cat.Epochs() || len(s.PUE) != cat.Epochs() {
			t.Fatalf("site %s profile lengths don't match the catalog's epochs", s.Name)
		}
		if s.SolarCapacityFactor <= 0 || s.SolarCapacityFactor > 0.35 {
			t.Errorf("site %s solar CF %v implausible", s.Name, s.SolarCapacityFactor)
		}
		if s.WindCapacityFactor < 0 || s.WindCapacityFactor > 0.75 {
			t.Errorf("site %s wind CF %v implausible", s.Name, s.WindCapacityFactor)
		}
		if s.AvgPUE < 1.05 || s.AvgPUE > 1.25 {
			t.Errorf("site %s avg PUE %v implausible", s.Name, s.AvgPUE)
		}
		if s.MaxPUE < s.AvgPUE-1e-6 {
			t.Errorf("site %s max PUE below average", s.Name)
		}
		if s.GridPriceUSDPerKWh <= 0 || s.LandPriceUSDPerM2 <= 0 {
			t.Errorf("site %s has non-positive prices", s.Name)
		}
		if s.DistPowerKm < 0 || s.DistNetworkKm < 0 || s.NearestPlantKW <= 0 {
			t.Errorf("site %s has invalid distances or plant size", s.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Options{Count: 40, Seed: 9, RepresentativeDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{Count: 40, Seed: 9, RepresentativeDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sites() {
		sa, _ := a.Site(i)
		sb, _ := b.Site(i)
		if sa.SolarCapacityFactor != sb.SolarCapacityFactor ||
			sa.WindCapacityFactor != sb.WindCapacityFactor ||
			sa.LandPriceUSDPerM2 != sb.LandPriceUSDPerM2 {
			t.Fatalf("site %d differs between identically-seeded catalogs", i)
		}
	}
}

// siteFingerprint is every field of a site: floats as their bits, the
// per-epoch rows as series.Digests.
type siteFingerprint struct {
	id, offset int
	name       string
	arch       weather.Archetype
	bits       [9]uint64
	rows       [3]uint64
}

func fingerprints(cat *Catalog) []siteFingerprint {
	out := make([]siteFingerprint, 0, cat.Len())
	for _, s := range cat.Sites() {
		fp := siteFingerprint{id: s.ID, offset: s.UTCOffsetHours, name: s.Name, arch: s.Archetype}
		for i, v := range []float64{
			s.SolarCapacityFactor, s.WindCapacityFactor, s.AvgPUE, s.MaxPUE,
			s.LandPriceUSDPerM2, s.GridPriceUSDPerKWh, s.DistPowerKm, s.DistNetworkKm, s.NearestPlantKW,
		} {
			fp.bits[i] = math.Float64bits(v)
		}
		fp.rows = [3]uint64{series.Digest(s.Alpha), series.Digest(s.Beta), series.Digest(s.PUE)}
		out = append(out, fp)
	}
	return out
}

// TestGenerateIndependentOfWorkerCount builds the same 300-site catalog on
// worker pools of 1, 2 and 4 goroutines (GOMAXPROCS sizes the pool): the
// sites a worker derives, and the order in which it derives them, change
// with the pool; the catalog must not.
func TestGenerateIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []siteFingerprint
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		cat, err := Generate(Options{Count: 300, Seed: 11, RepresentativeDays: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprints(cat)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d site %d:\n got  %+v\n want %+v (GOMAXPROCS 1)", procs, i, got[i], want[i])
			}
		}
	}
}

// TestCatalogRetainsOnlyItsRows builds perfbench's 300-site, 2-day set-up
// catalog and checks that, once the garbage collector has run, the live
// heap has grown by little more than the catalog itself (three 300×48
// profile blocks and the sites, well under 1 MB): the 300 weather years
// behind it (~36 MB) are the workers' to drop once reduced, and nothing in
// the process may keep them.
func TestCatalogRetainsOnlyItsRows(t *testing.T) {
	const limit = 4 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cat, err := Generate(Options{Count: 300, Seed: 2719, RepresentativeDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cat)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= limit {
		t.Errorf("live heap grew %.2f MB building a 300-site catalog, want < %d MB", float64(grew)/(1<<20), limit>>20)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Options{Count: -1}); err == nil {
		t.Error("negative count should error")
	}
	if _, err := Generate(Options{Count: 5, RepresentativeDays: 9999}); err == nil {
		t.Error("invalid representative days should error")
	}
}

func TestCatalogDistributionShape(t *testing.T) {
	// A moderately sized catalog must reproduce the qualitative facts of
	// Figs. 3 and 5: (a) a small minority of sites has wind CF far above
	// solar, (b) the majority has solar CF in the 0.10–0.25 band, and
	// (c) the best wind sites are cold (low PUE) while the best solar sites
	// are warm (higher PUE).
	cat, err := Generate(Options{Count: 300, Seed: 3, RepresentativeDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	highWind := 0
	solarMidBand := 0
	for _, s := range cat.Sites() {
		if s.WindCapacityFactor > 0.35 {
			highWind++
		}
		if s.SolarCapacityFactor >= 0.10 && s.SolarCapacityFactor <= 0.25 {
			solarMidBand++
		}
	}
	if highWind == 0 {
		t.Error("no exceptional wind sites in the catalog")
	}
	if frac := float64(highWind) / float64(cat.Len()); frac > 0.25 {
		t.Errorf("too many exceptional wind sites: %.0f%%", 100*frac)
	}
	if frac := float64(solarMidBand) / float64(cat.Len()); frac < 0.6 {
		t.Errorf("only %.0f%% of sites in the 10–25%% solar CF band, want most", 100*frac)
	}

	topWind := cat.TopByWindCF(10)
	topSolar := cat.TopBySolarCF(10)
	avgPUE := func(sites []*Site) float64 {
		sum := 0.0
		for _, s := range sites {
			sum += s.AvgPUE
		}
		return sum / float64(len(sites))
	}
	if avgPUE(topWind) >= avgPUE(topSolar) {
		t.Errorf("best wind sites should have lower PUE (%.3f) than best solar sites (%.3f)",
			avgPUE(topWind), avgPUE(topSolar))
	}
	if topWind[0].WindCapacityFactor < 0.3 {
		t.Errorf("best wind CF %.2f looks too low", topWind[0].WindCapacityFactor)
	}
	if topSolar[0].SolarCapacityFactor < 0.17 {
		t.Errorf("best solar CF %.2f looks too low", topSolar[0].SolarCapacityFactor)
	}
}

func TestSubsetAndSiteLookup(t *testing.T) {
	cat, err := Generate(Options{Count: 20, Seed: 4, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Site(20); err == nil {
		t.Error("out-of-range site lookup should error")
	}
	sub, err := cat.Subset([]int{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Fatalf("subset length %d, want 3", sub.Len())
	}
	// IDs are stable across Subset: site 7 keeps its identity, site 1 is
	// not part of the subset.
	orig, _ := cat.Site(7)
	got, err := sub.Site(7)
	if err != nil || got.Name != orig.Name {
		t.Errorf("subset lost site 7: %v, %v", got, err)
	}
	if _, err := sub.Site(1); err == nil {
		t.Error("site 1 should not be in the subset")
	}
	if sub.Sites()[1].Name != orig.Name {
		t.Error("subset order not preserved")
	}
	if _, err := cat.Subset([]int{99}); err == nil {
		t.Error("subset with invalid ID should error")
	}
}

func TestHourlyProfilesConsistentWithSummary(t *testing.T) {
	cat, err := Generate(Options{Count: 6, Seed: 8, RepresentativeDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := cat.Site(0)
	year := series.NewBlock(3, HoursPerYear)
	alpha, beta, pueH := year.Row(0), year.Row(1), year.Row(2)
	s.HourlyProfilesUTC(alpha, beta, pueH)
	naiveMean := func(x []float64) float64 {
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		return sum / float64(len(x))
	}
	if m := naiveMean(alpha); math.Abs(m-s.SolarCapacityFactor) > 1e-9 {
		t.Errorf("hourly alpha mean %v != stored solar CF %v", m, s.SolarCapacityFactor)
	}
	if m := naiveMean(beta); math.Abs(m-s.WindCapacityFactor) > 1e-9 {
		t.Errorf("hourly beta mean %v != stored wind CF %v", m, s.WindCapacityFactor)
	}
	if m := naiveMean(pueH); math.Abs(m-s.AvgPUE) > 1e-9 {
		t.Errorf("hourly PUE mean %v != stored avg PUE %v", m, s.AvgPUE)
	}
	peak := pueH[0]
	for _, v := range pueH {
		peak = math.Max(peak, v)
	}
	if peak != s.MaxPUE {
		t.Errorf("hourly PUE max %v != stored max PUE %v", peak, s.MaxPUE)
	}
}

func TestCapacityFactorAccessors(t *testing.T) {
	cat, err := Generate(Options{Count: 10, Seed: 2, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.SolarCapacityFactors()) != 10 || len(cat.WindCapacityFactors()) != 10 || len(cat.AvgPUEs()) != 10 {
		t.Error("accessor slices have wrong lengths")
	}
	for _, a := range []weather.Archetype{weather.Desert, weather.Temperate, weather.Maritime, weather.Ridge, weather.Tropical, weather.Continental, weather.Polar} {
		_ = archetypeEconomics(a) // must not panic and must return sane values
		eco := archetypeEconomics(a)
		if eco.elecMean <= 0 || eco.landMean <= 0 {
			t.Errorf("%v economics invalid", a)
		}
	}
}

func TestUTCOffsetsSpreadAndShiftProfiles(t *testing.T) {
	cat, err := Generate(Options{Count: 80, Seed: 5, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[int]bool{}
	for _, s := range cat.Sites() {
		if s.UTCOffsetHours < 0 || s.UTCOffsetHours > 23 {
			t.Fatalf("site %s has invalid UTC offset %d", s.Name, s.UTCOffsetHours)
		}
		offsets[s.UTCOffsetHours] = true
	}
	if len(offsets) < 10 {
		t.Errorf("only %d distinct time zones across 80 sites; expected a world-wide spread", len(offsets))
	}
	// The UTC-shifted hourly profile must match the stored per-epoch alpha
	// profile in its yearly mean and must differ from the local profile in
	// phase for a site with a non-zero offset.
	for _, s := range cat.Sites() {
		if s.UTCOffsetHours == 0 {
			continue
		}
		utc, local := series.NewBlock(3, HoursPerYear), series.NewBlock(3, HoursPerYear)
		s.HourlyProfilesUTC(utc.Row(0), utc.Row(1), utc.Row(2))
		hourlyUTC(weather.Generate(s.Archetype, s.seed), 0, local.Row(0), local.Row(1), local.Row(2))
		alphaUTC, alphaLocal := utc.Row(0), local.Row(0)
		if math.Abs(series.Sum(alphaUTC)-series.Sum(alphaLocal)) > 1e-9 {
			t.Fatal("shifting changed the mean")
		}
		if alphaUTC[100*24+12] == alphaLocal[100*24+12] &&
			alphaUTC[200*24+12] == alphaLocal[200*24+12] &&
			alphaUTC[300*24+12] == alphaLocal[300*24+12] {
			t.Errorf("site %s (offset %d) UTC profile identical to local profile", s.Name, s.UTCOffsetHours)
		}
		for i, v := range alphaUTC {
			if v != alphaLocal[(i+s.UTCOffsetHours)%HoursPerYear] {
				t.Fatalf("site %s: UTC hour %d is not local hour %d", s.Name, i, i+s.UTCOffsetHours)
			}
		}
		break
	}
}

func TestSpreadAcrossTimeZones(t *testing.T) {
	at := func(id, utc int) *Site { return &Site{ID: id, UTCOffsetHours: utc} }
	sites := []*Site{at(0, 0), at(1, 1), at(2, -11), at(3, 8), at(4, -8), at(5, 12)}
	// Site 0 first; site 5 (12 h away) is farthest from it; then the site
	// farthest from both 0 and 12 — ±6 h would win, but among these -8 and
	// 8 tie at 4 h, and the tie goes to the earlier one (site 3).
	got := SpreadAcrossTimeZones(sites, 3)
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 5 || got[2].ID != 3 {
		t.Fatalf("picked %v, want sites 0, 5, 3", ids(got))
	}
	// n or fewer sites: all of them, in input order, never reordered.
	few := []*Site{at(7, 5), at(8, 5), at(9, -3)}
	if got := SpreadAcrossTimeZones(few, 3); len(got) != 3 || got[0].ID != 7 || got[1].ID != 8 || got[2].ID != 9 {
		t.Fatalf("picked %v from three sites, want them in input order", ids(got))
	}
	// A site already picked is never picked twice, even when every
	// candidate sits in the same time zone.
	same := []*Site{at(0, 3), at(1, 3), at(2, 3), at(3, 3)}
	if got := SpreadAcrossTimeZones(same, 3); len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("picked %v from one time zone, want sites 0, 1, 2", ids(got))
	}
}

func ids(sites []*Site) []int {
	out := make([]int, len(sites))
	for i, s := range sites {
		out[i] = s.ID
	}
	return out
}
