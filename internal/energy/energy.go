// Package energy models how a datacenter's power demand is met from on-site
// green production, energy storage (batteries or grid net metering) and
// brown grid power over a chronological sequence of epochs.
//
// It implements the storage-related constraints of the paper's optimization
// problem (battery level evolution with charging efficiency, net-metering
// account that can never go negative) as a greedy chronological simulation:
// surplus green energy is stored, deficits are covered first from storage
// and then from the grid.  Totals reports the horizon's energy totals and
// its largest brown draw, against which the placement optimizer checks the
// nearest-plant cap.  The placement optimizer's fast evaluator builds on
// this package.
package energy

import (
	"errors"
	"fmt"
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
// Weights[i] hours.  The horizon starts with an empty battery and an empty
// net-metering account, and the grid covers every deficit storage leaves.
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
}

// Errors returned by Totals.
var (
	ErrLengthMismatch = errors.New("energy: green, demand and weight series must have equal length")
	ErrBadEfficiency  = errors.New("energy: battery efficiency must be in (0,1]")
	ErrBadMode        = errors.New("energy: unknown storage mode")
)

// BalanceTotals is the outcome of a balance: the yearly totals the cost
// model, the green-fraction constraint and the nearest-plant check need.
type BalanceTotals struct {
	DemandKWh         float64
	GreenUsedKWh      float64
	BrownKWh          float64
	NetChargedKWh     float64
	NetDischargedKWh  float64
	BattDischargedKWh float64
	// MaxBrownKW is the largest brown power draw of any epoch (the
	// nearest-plant constraint is written against it).
	MaxBrownKW float64
}

// GreenFraction returns the fraction of the demand that was covered by green
// sources (direct use, battery discharge, or net-metered credit), the metric
// the paper's minGreen constraint is written against.
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

// Totals runs the chronological greedy storage simulation and accumulates
// the yearly totals, performing no heap allocations.  The simulation is
// chronological, so the totals of a horizon's first k epochs are those of
// the same balance run on the k-epoch prefix.
func Totals(in BalanceInput) (BalanceTotals, error) {
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

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
