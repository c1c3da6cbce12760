package energy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// demandEnergy is Σ max(d, 0)·EpochHours, the demandKWh ScaleBracket takes.
func demandEnergy(s *Site) float64 {
	sum := 0.0
	for _, d := range s.DemandKW {
		sum += nonNegative(d) * s.EpochHours
	}
	return sum
}

// scaled is base with every size multiplied by k.
func scaled(base Plant, k float64) Plant {
	return Plant{SolarKW: k * base.SolarKW, WindKW: k * base.WindKW, BatteryKWh: k * base.BatteryKWh}
}

// greenAt is Green of s at plant k·base; the site is valid in every test.
func greenAt(t *testing.T, s *Site, base Plant, k float64) float64 {
	t.Helper()
	g, err := Green(s, scaled(base, k))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bracket is ScaleBracket of s at the target, on s's own demand energy.
func bracket(t *testing.T, s *Site, base Plant, target float64) (lo, hi float64) {
	t.Helper()
	lo, hi, err := ScaleBracket(s, base, demandEnergy(s), target)
	if err != nil {
		t.Fatal(err)
	}
	return lo, hi
}

// dayNight returns 24 hourly epochs of one unit of solar output per kW,
// dark for the first twelve epochs when nightFirst and for the last twelve
// otherwise, against the given demand (constant 1 kW when nil).
func dayNight(nightFirst bool, demand []float64, mode StorageMode) *Site {
	alpha := make([]float64, 24)
	for t := range alpha {
		if (t >= 12) == nightFirst {
			alpha[t] = 1
		}
	}
	if demand == nil {
		demand = constSeries(24, 1)
	}
	s := profileSite(alpha, demand, mode)
	s.BatteryEfficiency = 0.9
	return s
}

// TestScaleBracketSolarNightFirst: a solar site whose horizon opens with
// twelve dark hours.  Net metering starts with an empty bank, so once the
// night's demand alone exceeds the brown allowance no plant reaches the
// target; below that it needs exactly the plant whose day covers the rest.
func TestScaleBracketSolarNightFirst(t *testing.T) {
	s := dayNight(true, nil, NetMetering)
	if lo, hi := bracket(t, s, unitPlant, 0.6); !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
		t.Errorf("60%% target: bracket [%v, %v], want unreachable", lo, hi)
	}
	if g := greenAt(t, s, unitPlant, 1e9); g >= 0.6*24 {
		t.Errorf("60%% target: a 1e9 kW plant serves %v kWh of 24, yet the form says unreachable", g)
	}
	// At 50% the night is exactly the brown allowance: each day hour
	// must cover its own demand, so one kW of plant is the minimum.
	for _, mode := range []StorageMode{NoStorage, NetMetering} {
		s.Mode = mode
		lo, hi := bracket(t, s, unitPlant, 0.5)
		if lo != 1 || hi != 1 {
			t.Errorf("%v, 50%% target: bracket [%v, %v], want [1, 1]", mode, lo, hi)
		}
		if g := greenAt(t, s, unitPlant, 1); g < 12 {
			t.Errorf("%v: 1 kW serves %v kWh, short of 12", mode, g)
		}
		if g := greenAt(t, s, unitPlant, 1-1e-9); g >= 12 {
			t.Errorf("%v: a plant below 1 kW serves %v kWh, not short of 12", mode, g)
		}
	}
}

// TestScaleBracketNoStorageIdleGreenEpochs: demand only in the dark half,
// production only in the light half.  Without storage no plant serves
// anything; net metering banks the day for the night and needs exactly
// target kW; a battery lies between the two.
func TestScaleBracketNoStorageIdleGreenEpochs(t *testing.T) {
	demand := make([]float64, 24)
	for t := 12; t < 24; t++ {
		demand[t] = 1
	}
	s := dayNight(false, demand, NoStorage)
	for _, target := range []float64{0.25, 1} {
		if lo, hi := bracket(t, s, unitPlant, target); !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
			t.Errorf("no storage, %v target: bracket [%v, %v], want unreachable", target, lo, hi)
		}
		if g := greenAt(t, s, unitPlant, 1e9); g != 0 {
			t.Errorf("no storage: a 1e9 kW plant serves %v kWh", g)
		}
		s.Mode = NetMetering
		if lo, hi := bracket(t, s, unitPlant, target); math.Abs(lo-target) > 1e-15 || hi != lo {
			t.Errorf("net metering, %v target: bracket [%v, %v], want [%v, %v]", target, lo, hi, target, target)
		}
		s.Mode = Batteries
		battery := Plant{SolarKW: 1, BatteryKWh: 24}
		lo, hi := bracket(t, s, battery, target)
		if math.Abs(lo-target) > 1e-15 || !math.IsInf(hi, 1) {
			t.Errorf("batteries, %v target: bracket [%v, %v], want [%v, +Inf]", target, lo, hi, target)
		}
		// The lossy battery needs more than net metering: 1/0.9 of it.
		if g := greenAt(t, s, battery, lo*(1+1e-9)); g >= 12*target {
			t.Errorf("batteries, %v target: the net-metering scale %v already serves %v kWh", target, lo, g)
		}
		if g := greenAt(t, s, battery, lo/0.9*(1+1e-9)); g < 12*target*(1-1e-12) {
			t.Errorf("batteries, %v target: %v serves only %v kWh", target, lo/0.9, g)
		}
		s.Mode = NoStorage
	}
}

// TestScaleBracketFullTarget: at a 100% target under a flat half-kW-per-kW
// production and demand alternating 1 and 2 kW, no storage must cover the
// 2 kW hours outright (4 kW of plant) while net metering only has to keep
// every prefix covered (3 kW).
func TestScaleBracketFullTarget(t *testing.T) {
	alpha := constSeries(4, 0.5)
	demand := []float64{1, 2, 1, 2}
	for _, c := range []struct {
		mode StorageMode
		want float64
	}{{NoStorage, 4}, {NetMetering, 3}} {
		s := profileSite(alpha, demand, c.mode)
		lo, hi := bracket(t, s, unitPlant, 1)
		if lo != c.want || hi != c.want {
			t.Errorf("%v: bracket [%v, %v], want [%v, %v]", c.mode, lo, hi, c.want, c.want)
		}
		if g := greenAt(t, s, unitPlant, c.want); g != 6 {
			t.Errorf("%v: %v kW serves %v of 6 kWh", c.mode, c.want, g)
		}
	}
	s := profileSite(alpha, demand, Batteries)
	s.BatteryEfficiency = 0.8
	if lo, hi := bracket(t, s, Plant{SolarKW: 1, BatteryKWh: 0.5}, 1); lo != 3 || hi != 4 {
		t.Errorf("batteries: bracket [%v, %v], want [3, 4]", lo, hi)
	}
}

// TestScaleBracketDegenerate: with no demand any plant, even none, meets
// any target; with no production none does.
func TestScaleBracketDegenerate(t *testing.T) {
	battery := Plant{SolarKW: 1, WindKW: 1, BatteryKWh: 5}
	for _, mode := range []StorageMode{NoStorage, NetMetering, Batteries} {
		for _, target := range []float64{0.5, 1} {
			s := &Site{Alpha: constSeries(6, 0.3), Beta: constSeries(6, 0.2), DemandKW: make([]float64, 6),
				EpochHours: 2, Mode: mode, BatteryEfficiency: 0.9}
			if lo, hi := bracket(t, s, battery, target); lo != 0 || hi != 0 {
				t.Errorf("%v, %v target, no demand: bracket [%v, %v], want [0, 0]", mode, target, lo, hi)
			}
			s.DemandKW = constSeries(6, 10)
			s.Alpha, s.Beta = make([]float64, 6), make([]float64, 6)
			if lo, hi := bracket(t, s, battery, target); !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
				t.Errorf("%v, %v target, no production: bracket [%v, %v], want unreachable", mode, target, lo, hi)
			}
		}
	}
}

// TestScaleBracketZeroBatteryIsNoStorage: a battery bank of zero capacity
// stores nothing, so the bracket collapses onto the no-storage scale, bit
// for bit, and the battery balance is the no-storage one there.
func TestScaleBracketZeroBatteryIsNoStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := randomSite(rng, Batteries)
		base := Plant{SolarKW: rng.Float64(), WindKW: rng.Float64()}
		target := 0.05 + 0.95*rng.Float64()
		lo, hi := bracket(t, s, base, target)
		s.Mode = NoStorage
		want, _ := bracket(t, s, base, target)
		if math.Float64bits(lo) != math.Float64bits(want) || math.Float64bits(hi) != math.Float64bits(want) {
			t.Fatalf("trial %d: zero-capacity battery bracket [%v, %v], no-storage scale %v", trial, lo, hi, want)
		}
		if math.IsInf(want, 1) {
			continue
		}
		ns := greenAt(t, s, base, want)
		s.Mode = Batteries
		if b := greenAt(t, s, base, want); math.Float64bits(b) != math.Float64bits(ns) {
			t.Fatalf("trial %d: zero-capacity battery serves %v, no storage %v", trial, b, ns)
		}
	}
}

// randomSite is a 1–60 epoch site with random production (a dark stretch
// in some) and demand (idle epochs in some) in the given mode.
func randomSite(rng *rand.Rand, mode StorageMode) *Site {
	n := 1 + rng.Intn(60)
	s := &Site{
		Alpha: make([]float64, n), Beta: make([]float64, n), DemandKW: make([]float64, n),
		EpochHours: []float64{1, 182.5, 0.25 + rng.Float64()*24}[rng.Intn(3)],
		Mode:       mode, BatteryEfficiency: 0.5 + rng.Float64()*0.5,
	}
	dark := rng.Intn(n + 1)
	for i := 0; i < n; i++ {
		if i >= dark {
			s.Alpha[i] = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			s.Beta[i] = rng.Float64()
		}
		if rng.Intn(6) != 0 {
			s.DemandKW[i] = rng.Float64() * 100
		}
	}
	return s
}

// TestScaleBracketIsTight checks the closed forms against the balance they
// invert over randomized sites, plants and targets: without storage and
// with net metering the scale reaches the target (to rounding) and one a
// millionth below it does not, and an unreachable verdict holds at a plant
// a million times larger than the base; with batteries the bracket holds
// the battery's own threshold.
func TestScaleBracketIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3000; trial++ {
		mode := StorageMode(1 + trial%3)
		s := randomSite(rng, mode)
		base := Plant{SolarKW: rng.Float64() * 50, WindKW: rng.Float64() * 50}
		if rng.Intn(3) == 0 {
			base.WindKW = 0
		}
		if mode == Batteries {
			base.BatteryKWh = rng.Float64() * 200
		}
		target := 1.0
		if rng.Intn(4) != 0 {
			target = 0.01 + 0.99*rng.Float64()
		}
		demandKWh := demandEnergy(s)
		need := target * demandKWh
		lo, hi := bracket(t, s, base, target)
		name := fmt.Sprintf("trial %d (%v, target %v)", trial, mode, target)
		if !(lo <= hi) {
			t.Fatalf("%s: bracket [%v, %v] is empty", name, lo, hi)
		}
		if need == 0 {
			continue
		}
		if math.IsInf(lo, 1) {
			if g := greenAt(t, s, base, 1e6); g >= need {
				t.Fatalf("%s: unreachable, yet a 1e6-scaled plant serves %v of %v kWh", name, g, need)
			}
			continue
		}
		if g := greenAt(t, s, base, lo*(1-1e-6)); g >= need {
			t.Fatalf("%s: %v below the lower bound %v serves %v of %v kWh", name, 1e-6, lo, g, need)
		}
		if !math.IsInf(hi, 1) {
			if g := greenAt(t, s, base, hi*(1+1e-12)); g < need*(1-1e-12) {
				t.Fatalf("%s: the upper bound %v serves only %v of %v kWh", name, hi, g, need)
			}
		}
	}
}
