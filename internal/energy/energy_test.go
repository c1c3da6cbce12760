package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// profileSite returns an hourly-epoch site on which one kW of solar plant
// produces green[t] kW and wind produces nothing, so a balance of unitPlant
// (plus a battery bank) sees green as its production series.
func profileSite(green, demand []float64, mode StorageMode) *Site {
	return &Site{Alpha: green, Beta: make([]float64, len(green)), DemandKW: demand, EpochHours: 1, Mode: mode}
}

var unitPlant = Plant{SolarKW: 1}

// prefix returns s cut to its first k epochs.  The simulation is
// chronological, so the prefix's Totals are s's totals after epoch k-1,
// and each epoch's flows are differences of consecutive prefixes.
func prefix(s *Site, k int) *Site {
	c := *s
	c.Alpha, c.Beta, c.DemandKW = c.Alpha[:k], c.Beta[:k], c.DemandKW[:k]
	return &c
}

// refPrefix is prefix for the reference input.
func refPrefix(in refInput, k int) refInput {
	in.GreenKW, in.DemandKW, in.Weights = in.GreenKW[:k], in.DemandKW[:k], in.Weights[:k]
	return in
}

func constSeries(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestBalanceValidation(t *testing.T) {
	one := []float64{1}
	kernels := map[string]func(*Site) error{
		"Totals": func(s *Site) error {
			_, err := Totals(s, unitPlant)
			return err
		},
		"GreenAndDemand": func(s *Site) error {
			_, _, err := GreenAndDemand(s, unitPlant)
			return err
		},
	}
	for name, balance := range kernels {
		if err := balance(&Site{Alpha: one, Beta: one, DemandKW: []float64{1, 2}, EpochHours: 1, Mode: NoStorage}); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("%s: length mismatch: got %v", name, err)
		}
		if err := balance(&Site{Alpha: one, Beta: []float64{1, 2}, DemandKW: one, EpochHours: 1, Mode: NoStorage}); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("%s: wind profile length mismatch: got %v", name, err)
		}
		if err := balance(&Site{Alpha: one, Beta: one, DemandKW: one, EpochHours: 1, Mode: 0}); !errors.Is(err, ErrBadMode) {
			t.Errorf("%s: unknown mode: got %v", name, err)
		}
		for _, eff := range []float64{0, 2} {
			if err := balance(&Site{
				Alpha: one, Beta: one, DemandKW: one, EpochHours: 1,
				Mode: Batteries, BatteryEfficiency: eff,
			}); !errors.Is(err, ErrBadEfficiency) {
				t.Errorf("%s: battery efficiency %v: got %v", name, eff, err)
			}
		}
		if err := balance(&Site{Alpha: one, Beta: one, DemandKW: one, EpochHours: 0, Mode: NoStorage}); err == nil {
			t.Errorf("%s: zero epoch weight should error", name)
		}
	}
}

func TestBalanceAllBrown(t *testing.T) {
	res, err := Totals(profileSite(constSeries(24, 0), constSeries(24, 100), NoStorage), unitPlant)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.BrownKWh, 2400.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("BrownKWh = %v, want %v", got, want)
	}
	if f := refGreenFraction(res); f != 0 {
		t.Errorf("green fraction = %v, want 0", f)
	}
	if res.BrownKWh != res.DemandKWh || res.MaxBrownKW != 100 {
		t.Errorf("brown %v kWh (max %v kW) should cover all %v kWh of demand", res.BrownKWh, res.MaxBrownKW, res.DemandKWh)
	}
}

func TestBalanceAllGreen(t *testing.T) {
	res, err := Totals(profileSite(constSeries(24, 150), constSeries(24, 100), NoStorage), unitPlant)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh != 0 {
		t.Errorf("BrownKWh = %v, want 0", res.BrownKWh)
	}
	if got := refGreenFraction(res); got != 1 {
		t.Errorf("green fraction = %v, want 1", got)
	}
	// Surplus is curtailed under NoStorage.
	if res.GreenUsedKWh != 2400 {
		t.Errorf("GreenUsedKWh = %v, want 2400", res.GreenUsedKWh)
	}
}

func TestNetMeteringShiftsSurplusAcrossEpochs(t *testing.T) {
	// Green only in the first half of the day, demand constant: with net
	// metering the surplus from the morning covers the evening.
	green := make([]float64, 24)
	for h := 0; h < 12; h++ {
		green[h] = 200
	}
	in := profileSite(green, constSeries(24, 100), NetMetering)
	res, err := Totals(in, unitPlant)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh > 1e-9 {
		t.Errorf("net metering should cover the whole day, brown = %v", res.BrownKWh)
	}
	if got := refGreenFraction(res); math.Abs(got-1) > 1e-9 {
		t.Errorf("green fraction = %v, want 1", got)
	}
	if res.NetChargedKWh <= 0 || res.NetDischargedKWh <= 0 {
		t.Error("net metering account should have been used")
	}
	// Same setup without storage covers only half the demand.
	in.Mode = NoStorage
	resNo, err := Totals(in, unitPlant)
	if err != nil {
		t.Fatal(err)
	}
	if got := refGreenFraction(resNo); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("no-storage green fraction = %v, want 0.5", got)
	}
}

func TestNetLevelNeverNegative(t *testing.T) {
	in := profileSite([]float64{0, 300, 0, 0}, constSeries(4, 100), NetMetering)
	for k := 1; k <= len(in.DemandKW); k++ {
		res, err := Totals(prefix(in, k), unitPlant)
		if err != nil {
			t.Fatal(err)
		}
		if lvl := res.NetChargedKWh - res.NetDischargedKWh; lvl < -1e-9 {
			t.Errorf("net level after epoch %d is negative: %v", k-1, lvl)
		}
		// The first epoch has no banked energy yet, so it must draw brown
		// power.
		if k == 1 && res.BrownKWh != 100 {
			t.Errorf("epoch 0 brown = %v, want 100 (nothing banked yet)", res.BrownKWh)
		}
	}
}

func TestBatteriesRespectCapacityAndEfficiency(t *testing.T) {
	in := profileSite([]float64{500, 0, 0, 0}, constSeries(4, 100), Batteries)
	in.BatteryEfficiency = 0.75
	plant := Plant{SolarKW: 1, BatteryKWh: 150}
	// Charging loses 25 %: storing 150 kWh needs 200 kWh of surplus, which
	// is available (400 kWh surplus in epoch 0), so the full battery covers
	// epoch 1 and half of epoch 2, and nothing is left for epoch 3.
	for k, want := range []float64{0, 100, 150, 150} {
		res, err := Totals(prefix(in, k+1), plant)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.BattDischargedKWh-want) > 1e-9 {
			t.Errorf("discharged %v kWh by epoch %d, want %v", res.BattDischargedKWh, k, want)
		}
	}
	res, err := Totals(in, plant)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh <= 0 {
		t.Error("a 150 kWh battery cannot cover 300 kWh of night demand")
	}
}

func TestBatteryEfficiencyLoss(t *testing.T) {
	// With 100 kWh of surplus and 75 % efficiency, only 75 kWh is available later.
	in := profileSite([]float64{200, 0}, []float64{100, 100}, Batteries)
	in.BatteryEfficiency = 0.75
	res, err := Totals(in, Plant{SolarKW: 1, BatteryKWh: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BattDischargedKWh-75) > 1e-9 {
		t.Errorf("discharged %v, want 75 after efficiency loss", res.BattDischargedKWh)
	}
	if math.Abs(res.BrownKWh-25) > 1e-9 {
		t.Errorf("brown %v, want 25", res.BrownKWh)
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// After every epoch: demand = greenUsed + battDischarge + netDischarge
	// + brown (within tolerance), for arbitrary green/demand shapes.
	f := func(seed int64) bool {
		n := 24
		green := make([]float64, n)
		demand := make([]float64, n)
		x := uint64(seed)
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x%1000) / 10
		}
		for i := 0; i < n; i++ {
			green[i] = next()
			demand[i] = next()
		}
		for _, mode := range []StorageMode{NoStorage, NetMetering, Batteries} {
			in := profileSite(green, demand, mode)
			in.BatteryEfficiency = 0.75
			for k := 1; k <= n; k++ {
				res, err := Totals(prefix(in, k), Plant{SolarKW: 1, BatteryKWh: 50})
				if err != nil {
					return false
				}
				got := res.GreenUsedKWh + res.BattDischargedKWh + res.NetDischargedKWh + res.BrownKWh
				if math.Abs(got-res.DemandKWh) > 1e-6 {
					return false
				}
				if f := refGreenFraction(res); f < 0 || f > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// requiredPlantScale returns the multiplicative factor by which a green
// plant's capacity must be scaled so that the balance reaches the target
// green fraction, using bisection over scale with the GreenAndDemand probe.
// greenPerKW is the per-epoch production of one kW of installed plant, on
// hourly epochs.  It returns the smallest scale in [0, maxScale] that
// reaches the target, or maxScale if even that is insufficient (the caller
// then knows the target is unreachable with this source mix).
func requiredPlantScale(greenPerKW, demandKW []float64, mode StorageMode,
	battCapKWhPerKW float64, battEff float64, target float64, maxScale float64) (float64, error) {
	if target <= 0 {
		return 0, nil
	}
	if maxScale <= 0 {
		return 0, errors.New("energy: maxScale must be positive")
	}
	site := profileSite(greenPerKW, demandKW, mode)
	site.BatteryEfficiency = battEff
	eval := func(scale float64) (float64, error) {
		green, demand, err := GreenAndDemand(site, Plant{SolarKW: scale, BatteryKWh: battCapKWhPerKW * scale})
		if err != nil {
			return 0, err
		}
		if demand <= 0 {
			return 1, nil
		}
		return min(1, green/demand), nil
	}
	hiFrac, err := eval(maxScale)
	if err != nil {
		return 0, err
	}
	if hiFrac < target {
		return maxScale, nil
	}
	lo, hi := 0.0, maxScale
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		frac, err := eval(mid)
		if err != nil {
			return 0, err
		}
		if frac >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

func TestRequiredPlantScale(t *testing.T) {
	// One kW of plant produces 0.25 kW around the clock; demand is 100 kW.
	// Reaching 50 % green with no storage needs 200 kW of plant if
	// production were flat — and it is flat here, so the answer is ~200.
	greenPerKW := constSeries(24, 0.25)
	demand := constSeries(24, 100)
	scale, err := requiredPlantScale(greenPerKW, demand, NoStorage, 0, 1, 0.5, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scale-200) > 1 {
		t.Errorf("scale = %v, want ~200", scale)
	}
	// Unreachable target returns maxScale.
	scale, err = requiredPlantScale(constSeries(24, 0), demand, NoStorage, 0, 1, 0.5, 123)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 123 {
		t.Errorf("unreachable target should return maxScale, got %v", scale)
	}
	// Zero target needs no plant.
	scale, err = requiredPlantScale(greenPerKW, demand, NoStorage, 0, 1, 0, 100)
	if err != nil || scale != 0 {
		t.Errorf("zero target: scale=%v err=%v", scale, err)
	}
	if _, err := requiredPlantScale(greenPerKW, demand, NoStorage, 0, 1, 0.5, 0); err == nil {
		t.Error("non-positive maxScale should error")
	}
}

func TestRequiredPlantScaleStorageHelps(t *testing.T) {
	// Production only during the day: with net metering the plant needed to
	// reach 60 % green is smaller than without storage (which cannot get
	// past the 8/24 hours of production no matter the plant size).
	greenPerKW := make([]float64, 24)
	for h := 8; h < 16; h++ {
		greenPerKW[h] = 0.8
	}
	demand := constSeries(24, 100)
	withNM, err := requiredPlantScale(greenPerKW, demand, NetMetering, 0, 1, 0.6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	without, err := requiredPlantScale(greenPerKW, demand, NoStorage, 0, 1, 0.6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if withNM >= without {
		t.Errorf("net metering should need a smaller plant: %v vs %v", withNM, without)
	}
}

func TestStorageModeString(t *testing.T) {
	if NoStorage.String() != "none" || NetMetering.String() != "net-metering" || Batteries.String() != "batteries" {
		t.Error("unexpected storage mode names")
	}
	if StorageMode(42).String() == "" {
		t.Error("unknown mode should still have a name")
	}
}

// TestTotalsOverPrefixes checks the chronological accounting over
// randomized horizons, storage modes and battery parameters: every total
// only grows from one prefix to the next (up to rounding: a storage level
// drained to a rounding residue can give back an ulp), each epoch's brown
// draw (the difference of consecutive prefixes) covers exactly the demand
// storage and direct green use leave, and MaxBrownKW is the largest such
// draw.  Each horizon is checked through Totals at a uniform epoch weight,
// and through the reference balance with a weight that varies per epoch.
func TestTotalsOverPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(48)
		site := &Site{
			Alpha:      make([]float64, n),
			Beta:       make([]float64, n),
			DemandKW:   make([]float64, n),
			EpochHours: 1 + float64(rng.Intn(24)),
			Mode:       StorageMode(1 + rng.Intn(3)),
		}
		weights := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(5)-1))
		for i := 0; i < n; i++ {
			site.Alpha[i] = rng.Float64() * scale
			site.DemandKW[i] = rng.Float64() * scale
			weights[i] = 1 + float64(rng.Intn(24))
			if rng.Intn(12) == 0 {
				site.Alpha[i] = -site.Alpha[i] // exercise the nonNegative clamp
			}
		}
		plant := unitPlant
		if site.Mode == Batteries {
			plant.BatteryKWh = rng.Float64() * scale * 10
			site.BatteryEfficiency = 0.5 + rng.Float64()*0.5
		}
		ref := refInput{
			GreenKW: site.Alpha, DemandKW: site.DemandKW, Weights: weights, Mode: site.Mode,
			BatteryCapacityKWh: plant.BatteryKWh, BatteryEfficiency: site.BatteryEfficiency,
		}
		checkPrefixes(t, fmt.Sprintf("trial %d (mode %v, uniform weight)", trial, site.Mode), n, scale,
			func(int) float64 { return site.EpochHours },
			func(k int) (BalanceTotals, error) { return Totals(prefix(site, k), plant) })
		checkPrefixes(t, fmt.Sprintf("trial %d (mode %v, reference, varying weights)", trial, site.Mode), n, scale,
			func(i int) float64 { return weights[i] },
			func(k int) (BalanceTotals, error) { return refTotals(refPrefix(ref, k)) })
	}
}

// checkPrefixes runs TestTotalsOverPrefixes' checks on one n-epoch horizon
// whose k-epoch prefix totals totalsOf returns; epoch i lasts hoursAt(i).
func checkPrefixes(t *testing.T, name string, n int, scale float64,
	hoursAt func(int) float64, totalsOf func(k int) (BalanceTotals, error)) {
	t.Helper()
	var prev BalanceTotals
	maxBrown := 0.0
	for k := 1; k <= n; k++ {
		tot, err := totalsOf(k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tol := 1e-9 * scale * float64(k)
		if tot.DemandKWh < prev.DemandKWh || tot.GreenUsedKWh < prev.GreenUsedKWh ||
			tot.BrownKWh < prev.BrownKWh || tot.NetChargedKWh < prev.NetChargedKWh ||
			tot.NetDischargedKWh < prev.NetDischargedKWh-tol || tot.BattDischargedKWh < prev.BattDischargedKWh-tol ||
			tot.MaxBrownKW < prev.MaxBrownKW {
			t.Fatalf("%s: a total shrank after epoch %d: %+v then %+v", name, k-1, prev, tot)
		}
		hours := hoursAt(k - 1)
		brown := (tot.BrownKWh - prev.BrownKWh) / hours
		if brown > maxBrown {
			maxBrown = brown
		}
		if math.Abs(tot.MaxBrownKW-maxBrown) > tol {
			t.Fatalf("%s: MaxBrownKW %v after epoch %d, largest epoch draw %v", name, tot.MaxBrownKW, k-1, maxBrown)
		}
		covered := (tot.GreenUsedKWh - prev.GreenUsedKWh + tot.BattDischargedKWh - prev.BattDischargedKWh +
			tot.NetDischargedKWh - prev.NetDischargedKWh) / hours
		if demand := (tot.DemandKWh - prev.DemandKWh) / hours; math.Abs(covered+brown-demand) > tol {
			t.Fatalf("%s: epoch %d covers %v + %v brown of %v kW", name, k-1, covered, brown, demand)
		}
		prev = tot
	}
}
