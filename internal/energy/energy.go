// Package energy models how a datacenter's power demand is met from on-site
// green production, energy storage (batteries or grid net metering) and
// brown grid power over a chronological sequence of epochs.
//
// It implements the storage-related constraints of the paper's optimization
// problem (battery level evolution with charging efficiency, net-metering
// account that can never go negative, brown power capped by the nearest
// plant) as a greedy chronological simulation: surplus green energy is
// stored, deficits are covered first from storage and then from the grid.
// The placement optimizer's fast evaluator and the GreenNebula emulation
// both build on this package.
package energy

import (
	"errors"
	"fmt"

	"greencloud/internal/series"
)

// StorageMode selects how surplus green energy can be carried across epochs.
type StorageMode int

const (
	// NoStorage discards any surplus green energy.
	NoStorage StorageMode = iota + 1
	// NetMetering banks surplus energy in the grid and draws it back
	// later (the paper's netLevel account, always ≥ 0).
	NetMetering
	// Batteries stores surplus energy in on-site batteries with a
	// round-trip charging efficiency and a capacity limit.
	Batteries
)

var storageNames = map[StorageMode]string{
	NoStorage:   "none",
	NetMetering: "net-metering",
	Batteries:   "batteries",
}

// String returns the storage mode name.
func (m StorageMode) String() string {
	if s, ok := storageNames[m]; ok {
		return s
	}
	return fmt.Sprintf("storage(%d)", int(m))
}

// BalanceInput describes one site-year (or any chronological horizon) to
// balance.  All slices must have the same length; epoch i represents
// Weights[i] hours.
type BalanceInput struct {
	// GreenKW is the on-site green production per epoch (kW).
	GreenKW []float64
	// DemandKW is the total power demand per epoch (kW), already
	// including PUE overhead and migration overhead.
	DemandKW []float64
	// Weights is the number of hours each epoch represents.
	Weights []float64
	// Mode selects the storage technology.
	Mode StorageMode
	// BatteryCapacityKWh is the battery bank size (Batteries mode only).
	BatteryCapacityKWh float64
	// BatteryEfficiency is the charging efficiency in (0,1].
	BatteryEfficiency float64
	// MaxBrownKW caps the power that can be drawn from the grid
	// (the nearest-plant constraint); zero means unlimited.
	MaxBrownKW float64
	// InitialBatteryKWh is the battery charge at the start of the horizon.
	InitialBatteryKWh float64
}

// BalanceResult reports how demand was met in each epoch and the yearly
// totals the cost model and the green-fraction constraint need.
type BalanceResult struct {
	// Per-epoch series (kW, except levels in kWh at the end of the epoch).
	BrownKW         []float64
	GreenUsedKW     []float64
	BattChargeKW    []float64
	BattDischargeKW []float64
	NetChargeKW     []float64
	NetDischargeKW  []float64
	BatteryLevelKWh []float64
	NetLevelKWh     []float64
	// UnmetKW is demand that could not be covered (only possible when
	// MaxBrownKW caps grid power); a feasible provisioning has all zeros.
	UnmetKW []float64

	// Yearly totals in kWh.
	DemandKWh         float64
	GreenProducedKWh  float64
	GreenUsedKWh      float64
	BrownKWh          float64
	NetChargedKWh     float64
	NetDischargedKWh  float64
	BattDischargedKWh float64
	UnmetKWh          float64
}

// Errors returned by Balance.
var (
	ErrLengthMismatch = errors.New("energy: green, demand and weight series must have equal length")
	ErrBadEfficiency  = errors.New("energy: battery efficiency must be in (0,1]")
	ErrBadMode        = errors.New("energy: unknown storage mode")
)

// GreenFraction returns the fraction of the demand that was covered by green
// sources (direct use, battery discharge, or net-metered credit), the metric
// the paper's minGreen constraint is written against.
func (r *BalanceResult) GreenFraction() float64 {
	if r.DemandKWh <= 0 {
		return 1
	}
	green := r.GreenUsedKWh + r.BattDischargedKWh + r.NetDischargedKWh
	f := green / r.DemandKWh
	if f > 1 {
		return 1
	}
	return f
}

// Balancer runs the chronological greedy storage simulation without
// allocating in steady state: the per-epoch result series are owned by the
// Balancer and reused across calls (they are only reallocated when the
// horizon length grows).  The returned *BalanceResult aliases the
// Balancer's buffers and is invalidated by the next Balance call.  A
// Balancer must not be used concurrently.
type Balancer struct {
	res BalanceResult
}

// Balance runs the simulation with per-epoch series.
func (bl *Balancer) Balance(in BalanceInput) (*BalanceResult, error) {
	n := len(in.GreenKW)
	// Resize only — no zeroing: simulate writes every element of every
	// series on each epoch, so a clearing pass would be dead work.
	r := &bl.res
	*r = BalanceResult{
		BrownKW:         series.Grow(r.BrownKW, n),
		GreenUsedKW:     series.Grow(r.GreenUsedKW, n),
		BattChargeKW:    series.Grow(r.BattChargeKW, n),
		BattDischargeKW: series.Grow(r.BattDischargeKW, n),
		NetChargeKW:     series.Grow(r.NetChargeKW, n),
		NetDischargeKW:  series.Grow(r.NetDischargeKW, n),
		BatteryLevelKWh: series.Grow(r.BatteryLevelKWh, n),
		NetLevelKWh:     series.Grow(r.NetLevelKWh, n),
		UnmetKW:         series.Grow(r.UnmetKW, n),
	}
	tot, err := simulate(in, r)
	if err != nil {
		return nil, err
	}
	r.DemandKWh = tot.DemandKWh
	r.GreenProducedKWh = tot.GreenProducedKWh
	r.GreenUsedKWh = tot.GreenUsedKWh
	r.BrownKWh = tot.BrownKWh
	r.NetChargedKWh = tot.NetChargedKWh
	r.NetDischargedKWh = tot.NetDischargedKWh
	r.BattDischargedKWh = tot.BattDischargedKWh
	r.UnmetKWh = tot.UnmetKWh
	return r, nil
}

// simulate is the single chronological storage simulation behind both
// Balance and Totals: one statement sequence, so the two can never drift
// apart arithmetically.  When res is non-nil the per-epoch series are
// recorded into it (res's series must already be sized to len(in.GreenKW));
// when res is nil only the totals are accumulated and the function performs
// no heap allocations and no series writes.
func simulate(in BalanceInput, res *BalanceResult) (BalanceTotals, error) {
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

	battLevel := in.InitialBatteryKWh
	if battLevel > in.BatteryCapacityKWh {
		battLevel = in.BatteryCapacityKWh
	}
	netLevel := 0.0

	for i := 0; i < n; i++ {
		hours := in.Weights[i]
		if hours <= 0 {
			return BalanceTotals{}, fmt.Errorf("energy: epoch %d has non-positive weight %v", i, hours)
		}
		green := nonNegative(in.GreenKW[i])
		demand := nonNegative(in.DemandKW[i])
		r.DemandKWh += demand * hours
		r.GreenProducedKWh += green * hours

		// 1. Use green production directly.
		direct := green
		if direct > demand {
			direct = demand
		}
		r.GreenUsedKWh += direct * hours
		surplus := green - direct
		deficit := demand - direct

		// 2. Store surplus.
		battChargePow, netChargePow := 0.0, 0.0
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
				battChargePow = chargePow
			}
		case NetMetering:
			if surplus > 0 {
				netLevel += surplus * hours
				netChargePow = surplus
				r.NetChargedKWh += surplus * hours
			}
		case NoStorage:
			// Surplus is curtailed.
		}

		// 3. Cover the deficit: storage first, then brown power.
		battDischargePow, netDischargePow := 0.0, 0.0
		if deficit > 0 {
			switch in.Mode {
			case Batteries:
				dischargePow := deficit
				if dischargePow*hours > battLevel {
					dischargePow = battLevel / hours
				}
				battLevel -= dischargePow * hours
				battDischargePow = dischargePow
				r.BattDischargedKWh += dischargePow * hours
				deficit -= dischargePow
			case NetMetering:
				dischargePow := deficit
				if dischargePow*hours > netLevel {
					dischargePow = netLevel / hours
				}
				netLevel -= dischargePow * hours
				netDischargePow = dischargePow
				r.NetDischargedKWh += dischargePow * hours
				deficit -= dischargePow
			}
		}
		brown := 0.0
		if deficit > 0 {
			brown = deficit
			if in.MaxBrownKW > 0 && brown > in.MaxBrownKW {
				brown = in.MaxBrownKW
			}
			if brown > r.MaxBrownKW {
				r.MaxBrownKW = brown
			}
			r.BrownKWh += brown * hours
			deficit -= brown
		}
		unmet := 0.0
		if deficit > 1e-12 {
			unmet = deficit
			r.UnmetKWh += deficit * hours
		}

		if res != nil {
			res.GreenUsedKW[i] = direct
			res.BattChargeKW[i] = battChargePow
			res.NetChargeKW[i] = netChargePow
			res.BattDischargeKW[i] = battDischargePow
			res.NetDischargeKW[i] = netDischargePow
			res.BrownKW[i] = brown
			res.UnmetKW[i] = unmet
			res.BatteryLevelKWh[i] = battLevel
			res.NetLevelKWh[i] = netLevel
		}
	}
	return r, nil
}

// BalanceTotals is the scalar outcome of a balance: the yearly totals the
// cost model, the green-fraction constraint and the nearest-plant check need,
// without any per-epoch series.
type BalanceTotals struct {
	DemandKWh         float64
	GreenProducedKWh  float64
	GreenUsedKWh      float64
	BrownKWh          float64
	NetChargedKWh     float64
	NetDischargedKWh  float64
	BattDischargedKWh float64
	UnmetKWh          float64
	// MaxBrownKW is the largest brown power draw of any epoch (the
	// nearest-plant constraint is written against it).
	MaxBrownKW float64
}

// GreenFraction mirrors BalanceResult.GreenFraction.
func (t *BalanceTotals) GreenFraction() float64 {
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

// Totals runs the chronological greedy storage simulation exactly like
// Balance but accumulates only the yearly totals, performing no heap
// allocations and no per-epoch series writes.  Balance and Totals share the
// single simulate core — one statement sequence — so the returned totals
// are bit-identical to the ones a full Balance would report; hot loops that
// only need totals (the plant-sizing bisection, cost-only evaluation)
// should call this instead.
func Totals(in BalanceInput) (BalanceTotals, error) {
	return simulate(in, nil)
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
