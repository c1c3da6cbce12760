package energy

// This file preserves the generic balance — a green series, a demand series
// and a per-epoch weight series, with the storage mode switched inside the
// epoch loop — as a test-only reference.  The fused production kernels
// (Totals and Green in energy.go) are pinned against it bit for
// bit by TestFusedKernelsMatchReference.  It is a frozen copy of the
// balancer that shipped before the kernels were fused — do not "improve"
// it; its only job is to disagree loudly when a kernel drifts.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"greencloud/internal/series"
)

// refInput describes one horizon to balance.  All slices must have the
// same length; epoch i represents Weights[i] hours.
type refInput struct {
	GreenKW            []float64
	DemandKW           []float64
	Weights            []float64
	Mode               StorageMode
	BatteryCapacityKWh float64
	BatteryEfficiency  float64
}

// refTotals is the reference balance.
func refTotals(in refInput) (BalanceTotals, error) {
	n := len(in.GreenKW)
	var r BalanceTotals
	if len(in.DemandKW) != n || len(in.Weights) != n {
		return r, ErrLengthMismatch
	}
	switch in.Mode {
	case NoStorage, NetMetering, Batteries:
	default:
		return r, ErrBadMode
	}
	eff := in.BatteryEfficiency
	if in.Mode == Batteries {
		if eff <= 0 || eff > 1 {
			return r, ErrBadEfficiency
		}
	} else {
		eff = 1
	}

	battLevel, netLevel := 0.0, 0.0
	for i := 0; i < n; i++ {
		hours := in.Weights[i]
		if hours <= 0 {
			return BalanceTotals{}, fmt.Errorf("energy: epoch %d has non-positive weight %v", i, hours)
		}
		green := nonNegative(in.GreenKW[i])
		demand := nonNegative(in.DemandKW[i])
		r.DemandKWh += demand * hours

		// 1. Use green production directly.
		direct := green
		if direct > demand {
			direct = demand
		}
		r.GreenUsedKWh += direct * hours
		surplus := green - direct
		deficit := demand - direct

		// 2. Store surplus.
		switch in.Mode {
		case Batteries:
			if surplus > 0 && battLevel < in.BatteryCapacityKWh {
				// Power we can absorb this epoch limited by remaining capacity.
				room := in.BatteryCapacityKWh - battLevel
				chargePow := surplus
				if chargePow*eff*hours > room {
					chargePow = room / (eff * hours)
				}
				battLevel += chargePow * eff * hours
			}
		case NetMetering:
			if surplus > 0 {
				netLevel += surplus * hours
				r.NetChargedKWh += surplus * hours
			}
		case NoStorage:
			// Surplus is curtailed.
		}

		// 3. Cover the deficit: storage first, then brown power.
		if deficit > 0 {
			switch in.Mode {
			case Batteries:
				dischargePow := deficit
				if dischargePow*hours > battLevel {
					dischargePow = battLevel / hours
				}
				battLevel -= dischargePow * hours
				r.BattDischargedKWh += dischargePow * hours
				deficit -= dischargePow
			case NetMetering:
				dischargePow := deficit
				if dischargePow*hours > netLevel {
					dischargePow = netLevel / hours
				}
				netLevel -= dischargePow * hours
				r.NetDischargedKWh += dischargePow * hours
				deficit -= dischargePow
			}
		}
		if deficit > 0 {
			if deficit > r.MaxBrownKW {
				r.MaxBrownKW = deficit
			}
			r.BrownKWh += deficit * hours
		}
	}
	return r, nil
}

// refGreenFraction is the fraction of the demand covered by green sources
// (direct use, battery discharge, or net-metered credit), capped at 1.
func refGreenFraction(t BalanceTotals) float64 {
	if t.DemandKWh <= 0 {
		return 1
	}
	green := t.GreenUsedKWh + t.BattDischargedKWh + t.NetDischargedKWh
	f := green / t.DemandKWh
	if f > 1 {
		return 1
	}
	return f
}

// TestFusedKernelsMatchReference pins Totals and Green bit for bit
// against the reference over randomized horizons in every storage mode,
// with negative production and demand (the clamps), all-zero and partly
// zero demand, empty battery banks and lossless charging mixed in.  The
// reference sees the green series series.WeightedSum derives from the same
// plant and profiles, under a constant weight series.
func TestFusedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	modes := []StorageMode{NoStorage, NetMetering, Batteries}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(60)
		scale := math.Pow(10, float64(rng.Intn(5)-1))
		s := &Site{
			Alpha:             make([]float64, n),
			Beta:              make([]float64, n),
			DemandKW:          make([]float64, n),
			EpochHours:        []float64{1, 182.5, 365, 0.25 + rng.Float64()*24}[rng.Intn(4)],
			Mode:              modes[trial%len(modes)],
			BatteryEfficiency: 0.5 + rng.Float64()*0.5,
		}
		zeroDemand := rng.Intn(10) == 0
		for i := 0; i < n; i++ {
			s.Alpha[i] = rng.Float64()
			s.Beta[i] = rng.Float64()
			s.DemandKW[i] = rng.Float64() * scale
			switch rng.Intn(16) {
			case 0:
				s.Alpha[i] = -s.Alpha[i] // negative production
			case 1:
				s.DemandKW[i] = -s.DemandKW[i] // negative demand
			case 2:
				s.DemandKW[i] = 0
			}
			if zeroDemand {
				s.DemandKW[i] = 0
			}
		}
		p := Plant{SolarKW: rng.Float64() * scale, WindKW: rng.Float64() * scale}
		if rng.Intn(8) == 0 {
			p.WindKW = -p.WindKW
		}
		if s.Mode == Batteries {
			p.BatteryKWh = rng.Float64() * scale * 10
			switch rng.Intn(4) {
			case 0:
				p.BatteryKWh = 0
			case 1:
				s.BatteryEfficiency = 1
			}
		}

		green := make([]float64, n)
		series.WeightedSum(green, p.SolarKW, s.Alpha, p.WindKW, s.Beta)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = s.EpochHours
		}
		want, err := refTotals(refInput{
			GreenKW: green, DemandKW: s.DemandKW, Weights: weights, Mode: s.Mode,
			BatteryCapacityKWh: p.BatteryKWh, BatteryEfficiency: s.BatteryEfficiency,
		})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		got, err := Totals(s, p)
		if err != nil {
			t.Fatalf("trial %d: Totals: %v", trial, err)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"DemandKWh", got.DemandKWh, want.DemandKWh},
			{"GreenUsedKWh", got.GreenUsedKWh, want.GreenUsedKWh},
			{"BrownKWh", got.BrownKWh, want.BrownKWh},
			{"NetChargedKWh", got.NetChargedKWh, want.NetChargedKWh},
			{"NetDischargedKWh", got.NetDischargedKWh, want.NetDischargedKWh},
			{"BattDischargedKWh", got.BattDischargedKWh, want.BattDischargedKWh},
			{"MaxBrownKW", got.MaxBrownKW, want.MaxBrownKW},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("trial %d (mode %v): Totals %s = %v, reference %v", trial, s.Mode, f.name, f.got, f.want)
			}
		}

		greenKWh, err := Green(s, p)
		if err != nil {
			t.Fatalf("trial %d: Green: %v", trial, err)
		}
		wantGreen := want.GreenUsedKWh + want.BattDischargedKWh + want.NetDischargedKWh
		if math.Float64bits(greenKWh) != math.Float64bits(wantGreen) {
			t.Fatalf("trial %d (mode %v): Green = %v, reference %v", trial, s.Mode, greenKWh, wantGreen)
		}
	}
}
