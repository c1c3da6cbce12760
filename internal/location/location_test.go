package location

import (
	"math"
	"testing"
	"testing/quick"

	"greencloud/internal/timeseries"
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

func TestGenerateCatalogSmall(t *testing.T) {
	cat, err := Generate(Options{Count: 60, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if cat.Len() != 60 {
		t.Fatalf("Len() = %d, want 60", cat.Len())
	}
	if cat.Grid().Len() != 2*timeseries.HoursPerDay {
		t.Errorf("grid epochs = %d, want 2 days of %d", cat.Grid().Len(), timeseries.HoursPerDay)
	}
	seen := map[string]bool{}
	for _, s := range cat.Sites() {
		if seen[s.Name] {
			t.Errorf("duplicate site name %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Alpha) != cat.Grid().Len() || len(s.Beta) != cat.Grid().Len() || len(s.PUE) != cat.Grid().Len() {
			t.Fatalf("site %s profile lengths don't match grid", s.Name)
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
	alpha, beta, pueSeries := s.HourlyProfiles()
	if math.Abs(alpha.Mean()-s.SolarCapacityFactor) > 1e-9 {
		t.Errorf("hourly alpha mean %v != stored solar CF %v", alpha.Mean(), s.SolarCapacityFactor)
	}
	if math.Abs(beta.Mean()-s.WindCapacityFactor) > 1e-9 {
		t.Errorf("hourly beta mean %v != stored wind CF %v", beta.Mean(), s.WindCapacityFactor)
	}
	if math.Abs(pueSeries.Mean()-s.AvgPUE) > 1e-9 {
		t.Errorf("hourly PUE mean %v != stored avg PUE %v", pueSeries.Mean(), s.AvgPUE)
	}
	if s.WeatherTrace().Archetype != s.Archetype {
		t.Error("weather trace archetype mismatch")
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
		alphaUTC, _, _ := s.HourlyProfilesUTC()
		alphaLocal, _, _ := s.HourlyProfiles()
		if math.Abs(alphaUTC.Mean()-alphaLocal.Mean()) > 1e-12 {
			t.Fatal("shifting changed the mean")
		}
		if alphaUTC.AtDayHour(100, 12) == alphaLocal.AtDayHour(100, 12) &&
			alphaUTC.AtDayHour(200, 12) == alphaLocal.AtDayHour(200, 12) &&
			alphaUTC.AtDayHour(300, 12) == alphaLocal.AtDayHour(300, 12) {
			t.Errorf("site %s (offset %d) UTC profile identical to local profile", s.Name, s.UTCOffsetHours)
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
