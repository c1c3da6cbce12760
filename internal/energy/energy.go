// Package energy models how a datacenter's power demand is met from on-site
// green production, energy storage (batteries or grid net metering) and
// brown grid power over a chronological sequence of epochs.
//
// It implements the storage-related constraints of the paper's optimization
// problem (battery level evolution with charging efficiency, net-metering
// account that can never go negative) as a greedy chronological simulation:
// surplus green energy is stored, deficits are covered first from storage
// and then from the grid.
//
// A balance takes a Site (per-kW solar and wind profiles, demand, a uniform
// epoch length and a storage mode) and a Plant (solar, wind and battery
// sizes), and derives each epoch's green production inline as
// SolarKW·α[t] + WindKW·β[t]; the placement optimizer's evaluator fills one
// Site per candidate and probes many plants against it.  Two kernels share
// one greedy rule:
//
//   - Totals reports every yearly total, including the largest brown draw
//     against which the optimizer checks the nearest-plant cap.  It runs
//     once per priced site.
//   - GreenAndDemand reports only green-covered and demand energy, with one
//     loop per storage mode.  It is the plant-sizing bisection's probe,
//     the hot loop of siting.
//
// Both perform the same floating-point operations in the same order as a
// generic per-epoch simulation, so their results agree bit for bit; the
// differential test in balance_ref_test.go pins that against such a
// reference.
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

// Site is the fixed side of one site's balance: its per-kW production
// profiles, its demand and its storage technology over a chronological
// horizon of equal-length epochs.  Alpha, Beta and DemandKW must have the
// same length.  The horizon starts with an empty battery and an empty
// net-metering account, and the grid covers every deficit storage leaves.
type Site struct {
	// Alpha and Beta are the per-epoch output of one kW of solar and of
	// wind plant (kW per installed kW).
	Alpha []float64
	Beta  []float64
	// DemandKW is the total power demand per epoch (kW), already
	// including PUE overhead and migration overhead.
	DemandKW []float64
	// EpochHours is the number of hours every epoch represents.
	EpochHours float64
	// Mode selects the storage technology.
	Mode StorageMode
	// BatteryEfficiency is the charging efficiency in (0,1] (Batteries
	// mode only).
	BatteryEfficiency float64
}

// Plant is the provisioning balanced against a Site.
type Plant struct {
	SolarKW float64
	WindKW  float64
	// BatteryKWh is the battery bank size (Batteries mode only).
	BatteryKWh float64
}

// Errors returned by Totals and GreenAndDemand.
var (
	ErrLengthMismatch = errors.New("energy: alpha, beta and demand series must have equal length")
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

// check validates s in O(1) and returns its epoch count and the battery
// efficiency the simulation uses (1 outside Batteries mode).
func (s *Site) check() (n int, eff float64, err error) {
	n = len(s.DemandKW)
	if len(s.Alpha) != n || len(s.Beta) != n {
		return 0, 0, ErrLengthMismatch
	}
	switch s.Mode {
	case NoStorage, NetMetering, Batteries:
	default:
		return 0, 0, ErrBadMode
	}
	eff = 1
	if s.Mode == Batteries {
		eff = s.BatteryEfficiency
		if eff <= 0 || eff > 1 {
			return 0, 0, ErrBadEfficiency
		}
	}
	if s.EpochHours <= 0 {
		return 0, 0, fmt.Errorf("energy: non-positive epoch weight %v", s.EpochHours)
	}
	return n, eff, nil
}

// Totals runs the chronological greedy storage simulation of p on s and
// accumulates the yearly totals, performing no heap allocations.  The
// simulation is chronological, so the totals of a horizon's first k epochs
// are those of the same balance run on the k-epoch prefix.
func Totals(s *Site, p Plant) (BalanceTotals, error) {
	var r BalanceTotals
	n, eff, err := s.check()
	if err != nil {
		return r, err
	}
	alpha, beta, demandKW := s.Alpha[:n], s.Beta[:n], s.DemandKW[:n]
	hours := s.EpochHours
	capKWh := p.BatteryKWh
	battLevel, netLevel := 0.0, 0.0
	for i := range demandKW {
		green := nonNegative(p.SolarKW*alpha[i] + p.WindKW*beta[i])
		demand := nonNegative(demandKW[i])
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
		switch s.Mode {
		case Batteries:
			if surplus > 0 && battLevel < capKWh {
				// Power we can absorb this epoch limited by remaining capacity.
				room := capKWh - battLevel
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
			switch s.Mode {
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

// GreenAndDemand runs the same simulation as Totals but returns only the
// demand energy and the energy green sources covered (direct use plus
// storage discharge), the two numbers a green-fraction probe needs.  Each
// storage mode gets its own loop with the brown accounting left out; every
// operation it keeps is Totals' own, in the same order, so greenKWh equals
// GreenUsedKWh + BattDischargedKWh + NetDischargedKWh of Totals and
// demandKWh its DemandKWh, bit for bit.
func GreenAndDemand(s *Site, p Plant) (greenKWh, demandKWh float64, err error) {
	n, eff, err := s.check()
	if err != nil {
		return 0, 0, err
	}
	alpha, beta, demandKW := s.Alpha[:n], s.Beta[:n], s.DemandKW[:n]
	solar, wind, hours := p.SolarKW, p.WindKW, s.EpochHours
	used := 0.0
	switch s.Mode {
	case NoStorage:
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
			demandKWh += demand * hours
			direct := green
			if direct > demand {
				direct = demand
			}
			used += direct * hours
		}
		return used, demandKWh, nil
	case NetMetering:
		netLevel, discharged := 0.0, 0.0
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
			demandKWh += demand * hours
			direct := green
			if direct > demand {
				direct = demand
			}
			used += direct * hours
			if surplus := green - direct; surplus > 0 {
				netLevel += surplus * hours
			}
			if deficit := demand - direct; deficit > 0 {
				dischargePow := deficit
				if dischargePow*hours > netLevel {
					dischargePow = netLevel / hours
				}
				netLevel -= dischargePow * hours
				discharged += dischargePow * hours
			}
		}
		return used + discharged, demandKWh, nil
	default: // Batteries
		capKWh := p.BatteryKWh
		battLevel, discharged := 0.0, 0.0
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
			demandKWh += demand * hours
			direct := green
			if direct > demand {
				direct = demand
			}
			used += direct * hours
			if surplus := green - direct; surplus > 0 && battLevel < capKWh {
				room := capKWh - battLevel
				chargePow := surplus
				if chargePow*eff*hours > room {
					chargePow = room / (eff * hours)
				}
				battLevel += chargePow * eff * hours
			}
			if deficit := demand - direct; deficit > 0 {
				dischargePow := deficit
				if dischargePow*hours > battLevel {
					dischargePow = battLevel / hours
				}
				battLevel -= dischargePow * hours
				discharged += dischargePow * hours
			}
		}
		return used + discharged, demandKWh, nil
	}
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
