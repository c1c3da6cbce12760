package energy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"greencloud/internal/series"
)

// balance runs one simulation on a fresh Balancer, so the result owns its
// series.
func balance(in BalanceInput) (*BalanceResult, error) { return new(Balancer).Balance(in) }

func constSeries(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestBalanceValidation(t *testing.T) {
	if _, err := balance(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1, 2}, Weights: []float64{1}}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := balance(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{1}, Mode: 0}); err == nil {
		t.Error("unknown mode should error")
	}
	if _, err := balance(BalanceInput{
		GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{1},
		Mode: Batteries, BatteryEfficiency: 0,
	}); err == nil {
		t.Error("zero efficiency with batteries should error")
	}
	if _, err := balance(BalanceInput{
		GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{0}, Mode: NoStorage,
	}); err == nil {
		t.Error("zero weight should error")
	}
}

func TestBalanceAllBrown(t *testing.T) {
	res, err := balance(BalanceInput{
		GreenKW:  constSeries(24, 0),
		DemandKW: constSeries(24, 100),
		Weights:  constSeries(24, 1),
		Mode:     NoStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.BrownKWh, 2400.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("BrownKWh = %v, want %v", got, want)
	}
	if res.GreenFraction() != 0 {
		t.Errorf("green fraction = %v, want 0", res.GreenFraction())
	}
	if res.UnmetKWh >= 1e-6 {
		t.Error("unlimited brown power should always be feasible")
	}
}

func TestBalanceAllGreen(t *testing.T) {
	res, err := balance(BalanceInput{
		GreenKW:  constSeries(24, 150),
		DemandKW: constSeries(24, 100),
		Weights:  constSeries(24, 1),
		Mode:     NoStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh != 0 {
		t.Errorf("BrownKWh = %v, want 0", res.BrownKWh)
	}
	if got := res.GreenFraction(); got != 1 {
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
	in := BalanceInput{
		GreenKW:  green,
		DemandKW: constSeries(24, 100),
		Weights:  constSeries(24, 1),
		Mode:     NetMetering,
	}
	res, err := balance(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh > 1e-9 {
		t.Errorf("net metering should cover the whole day, brown = %v", res.BrownKWh)
	}
	if got := res.GreenFraction(); math.Abs(got-1) > 1e-9 {
		t.Errorf("green fraction = %v, want 1", got)
	}
	if res.NetChargedKWh <= 0 || res.NetDischargedKWh <= 0 {
		t.Error("net metering account should have been used")
	}
	// Same setup without storage covers only half the demand.
	in.Mode = NoStorage
	resNo, err := balance(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := resNo.GreenFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("no-storage green fraction = %v, want 0.5", got)
	}
}

func TestNetLevelNeverNegative(t *testing.T) {
	green := []float64{0, 300, 0, 0}
	res, err := balance(BalanceInput{
		GreenKW:  green,
		DemandKW: constSeries(4, 100),
		Weights:  constSeries(4, 1),
		Mode:     NetMetering,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range res.NetLevelKWh {
		if lvl < -1e-9 {
			t.Errorf("net level at epoch %d is negative: %v", i, lvl)
		}
	}
	// The first epoch has no banked energy yet, so it must draw brown power.
	if res.BrownKW[0] != 100 {
		t.Errorf("epoch 0 brown = %v, want 100 (nothing banked yet)", res.BrownKW[0])
	}
}

func TestBatteriesRespectCapacityAndEfficiency(t *testing.T) {
	green := []float64{500, 0, 0, 0}
	res, err := balance(BalanceInput{
		GreenKW:            green,
		DemandKW:           constSeries(4, 100),
		Weights:            constSeries(4, 1),
		Mode:               Batteries,
		BatteryCapacityKWh: 150,
		BatteryEfficiency:  0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Battery can hold at most 150 kWh, so epochs 1..3 get at most 150 kWh
	// of discharge in total.
	if res.BattDischargedKWh > 150+1e-9 {
		t.Errorf("discharged %v exceeds capacity 150", res.BattDischargedKWh)
	}
	for i, lvl := range res.BatteryLevelKWh {
		if lvl < -1e-9 || lvl > 150+1e-9 {
			t.Errorf("battery level at epoch %d out of bounds: %v", i, lvl)
		}
	}
	// Charging loses 25 %: storing 150 kWh needs 200 kWh of surplus, which
	// is available (400 kWh surplus in epoch 0).
	if res.BattChargeKW[0] <= 0 {
		t.Error("battery should charge during the surplus epoch")
	}
	if res.BrownKWh <= 0 {
		t.Error("a 150 kWh battery cannot cover 300 kWh of night demand")
	}
}

func TestBatteryEfficiencyLoss(t *testing.T) {
	// With 100 kWh of surplus and 75 % efficiency, only 75 kWh is available later.
	res, err := balance(BalanceInput{
		GreenKW:            []float64{200, 0},
		DemandKW:           []float64{100, 100},
		Weights:            []float64{1, 1},
		Mode:               Batteries,
		BatteryCapacityKWh: 1000,
		BatteryEfficiency:  0.75,
	})
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

func TestMaxBrownCapCausesUnmet(t *testing.T) {
	res, err := balance(BalanceInput{
		GreenKW:    constSeries(3, 0),
		DemandKW:   constSeries(3, 100),
		Weights:    constSeries(3, 1),
		Mode:       NoStorage,
		MaxBrownKW: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnmetKWh < 1e-6 {
		t.Error("capped brown power should make this infeasible")
	}
	if math.Abs(res.UnmetKWh-120) > 1e-9 {
		t.Errorf("unmet = %v, want 120", res.UnmetKWh)
	}
	for i, b := range res.BrownKW {
		if b > 60+1e-12 {
			t.Errorf("epoch %d brown %v exceeds the cap", i, b)
		}
	}
}

func TestInitialBatteryCharge(t *testing.T) {
	res, err := balance(BalanceInput{
		GreenKW:            []float64{0},
		DemandKW:           []float64{50},
		Weights:            []float64{1},
		Mode:               Batteries,
		BatteryCapacityKWh: 100,
		BatteryEfficiency:  1,
		InitialBatteryKWh:  80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownKWh != 0 {
		t.Errorf("initial charge should cover demand, brown = %v", res.BrownKWh)
	}
	if math.Abs(res.BatteryLevelKWh[0]-30) > 1e-9 {
		t.Errorf("battery level = %v, want 30", res.BatteryLevelKWh[0])
	}
	// Initial charge above capacity is clamped.
	res2, err := balance(BalanceInput{
		GreenKW:            []float64{0},
		DemandKW:           []float64{0},
		Weights:            []float64{1},
		Mode:               Batteries,
		BatteryCapacityKWh: 10,
		BatteryEfficiency:  1,
		InitialBatteryKWh:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.BatteryLevelKWh[0] > 10+1e-9 {
		t.Errorf("initial charge not clamped to capacity: %v", res2.BatteryLevelKWh[0])
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// In every epoch: demand = greenUsed + battDischarge + netDischarge +
	// brown + unmet (within tolerance), for arbitrary green/demand shapes.
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
			res, err := balance(BalanceInput{
				GreenKW: green, DemandKW: demand, Weights: constSeries(n, 1),
				Mode: mode, BatteryCapacityKWh: 50, BatteryEfficiency: 0.75,
			})
			if err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				got := res.GreenUsedKW[i] + res.BattDischargeKW[i] + res.NetDischargeKW[i] +
					res.BrownKW[i] + res.UnmetKW[i]
				if math.Abs(got-demand[i]) > 1e-6 {
					return false
				}
			}
			if res.GreenFraction() < 0 || res.GreenFraction() > 1 {
				return false
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
// green fraction, using bisection over scale.  greenPerKW is the per-epoch
// production of one kW of installed plant; the other inputs are as in
// Balance.  It returns the smallest scale in [0, maxScale] that reaches the
// target, or maxScale if even that is insufficient (the caller then knows
// the target is unreachable with this source mix).
func requiredPlantScale(greenPerKW, demandKW, weights []float64, mode StorageMode,
	battCapKWhPerKW float64, battEff float64, target float64, maxScale float64) (float64, error) {
	if target <= 0 {
		return 0, nil
	}
	if maxScale <= 0 {
		return 0, errors.New("energy: maxScale must be positive")
	}
	green := make([]float64, len(greenPerKW))
	eval := func(scale float64) (float64, error) {
		series.Scale(green, scale, greenPerKW)
		res, err := balance(BalanceInput{
			GreenKW:            green,
			DemandKW:           demandKW,
			Weights:            weights,
			Mode:               mode,
			BatteryCapacityKWh: battCapKWhPerKW * scale,
			BatteryEfficiency:  battEff,
		})
		if err != nil {
			return 0, err
		}
		return res.GreenFraction(), nil
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
	weights := constSeries(24, 1)
	scale, err := requiredPlantScale(greenPerKW, demand, weights, NoStorage, 0, 1, 0.5, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scale-200) > 1 {
		t.Errorf("scale = %v, want ~200", scale)
	}
	// Unreachable target returns maxScale.
	scale, err = requiredPlantScale(constSeries(24, 0), demand, weights, NoStorage, 0, 1, 0.5, 123)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 123 {
		t.Errorf("unreachable target should return maxScale, got %v", scale)
	}
	// Zero target needs no plant.
	scale, err = requiredPlantScale(greenPerKW, demand, weights, NoStorage, 0, 1, 0, 100)
	if err != nil || scale != 0 {
		t.Errorf("zero target: scale=%v err=%v", scale, err)
	}
	if _, err := requiredPlantScale(greenPerKW, demand, weights, NoStorage, 0, 1, 0.5, 0); err == nil {
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
	weights := constSeries(24, 1)
	withNM, err := requiredPlantScale(greenPerKW, demand, weights, NetMetering, 0, 1, 0.6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	without, err := requiredPlantScale(greenPerKW, demand, weights, NoStorage, 0, 1, 0.6, 1e6)
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

// TestTotalsMatchesBalanceBitwise pins the contract Totals documents: its
// scalar accumulation must stay statement-for-statement identical to the
// series-producing Balance, so every total (and the max brown draw) agrees
// bit-for-bit across randomized horizons, storage modes and battery
// parameters.  A future edit to one loop that is not mirrored in the other
// fails here immediately.
func TestTotalsMatchesBalanceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bl Balancer
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(96)
		in := BalanceInput{
			GreenKW:  make([]float64, n),
			DemandKW: make([]float64, n),
			Weights:  make([]float64, n),
			Mode:     StorageMode(1 + rng.Intn(3)),
		}
		scale := math.Pow(10, float64(rng.Intn(5)-1))
		for i := 0; i < n; i++ {
			in.GreenKW[i] = rng.Float64() * scale
			in.DemandKW[i] = rng.Float64() * scale
			in.Weights[i] = 1 + float64(rng.Intn(24))
			if rng.Intn(12) == 0 {
				in.GreenKW[i] = -in.GreenKW[i] // exercise the nonNegative clamp
			}
		}
		if in.Mode == Batteries {
			in.BatteryCapacityKWh = rng.Float64() * scale * 10
			in.BatteryEfficiency = 0.5 + rng.Float64()*0.5
			in.InitialBatteryKWh = rng.Float64() * scale * 20
		}
		if rng.Intn(2) == 0 {
			in.MaxBrownKW = rng.Float64() * scale
		}

		res, err := bl.Balance(in)
		if err != nil {
			t.Fatalf("trial %d: Balance: %v", trial, err)
		}
		tot, err := Totals(in)
		if err != nil {
			t.Fatalf("trial %d: Totals: %v", trial, err)
		}
		maxBrown := 0.0
		for _, b := range res.BrownKW {
			if b > maxBrown {
				maxBrown = b
			}
		}
		want := BalanceTotals{
			DemandKWh:         res.DemandKWh,
			GreenProducedKWh:  res.GreenProducedKWh,
			GreenUsedKWh:      res.GreenUsedKWh,
			BrownKWh:          res.BrownKWh,
			NetChargedKWh:     res.NetChargedKWh,
			NetDischargedKWh:  res.NetDischargedKWh,
			BattDischargedKWh: res.BattDischargedKWh,
			UnmetKWh:          res.UnmetKWh,
			MaxBrownKW:        maxBrown,
		}
		if tot != want {
			t.Fatalf("trial %d (mode %v, n=%d): Totals %+v != Balance totals %+v", trial, in.Mode, n, tot, want)
		}
		if tot.GreenFraction() != res.GreenFraction() {
			t.Fatalf("trial %d: green fractions differ: %v vs %v", trial, tot.GreenFraction(), res.GreenFraction())
		}
	}

	// Error paths must match too.
	if _, err := Totals(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{1, 2}}); err != ErrLengthMismatch {
		t.Errorf("length mismatch: got %v", err)
	}
	if _, err := Totals(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{1}}); err != ErrBadMode {
		t.Errorf("bad mode: got %v", err)
	}
	if _, err := Totals(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{1},
		Mode: Batteries, BatteryEfficiency: 2}); err != ErrBadEfficiency {
		t.Errorf("bad efficiency: got %v", err)
	}
	if _, err := Totals(BalanceInput{GreenKW: []float64{1}, DemandKW: []float64{1}, Weights: []float64{0},
		Mode: NoStorage}); err == nil {
		t.Error("non-positive weight should error")
	}
}
