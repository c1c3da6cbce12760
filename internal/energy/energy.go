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
// Site per candidate and sizes a plant against it.  Two kernels share one
// greedy rule:
//
//   - Totals reports every yearly total, including the largest brown draw
//     against which the optimizer checks the nearest-plant cap.  It runs
//     once per priced site.
//   - Green reports only green-covered energy, with one loop per storage
//     mode.  It is the plant sizing's probe: it confirms a closed-form
//     size and drives the battery bisection.
//
// Both perform the same floating-point operations in the same order as a
// generic per-epoch simulation, so their results agree bit for bit; the
// differential test in balance_ref_test.go pins that against such a
// reference.  ScaleBracket inverts the same rule: it gives the smallest
// plant scale that meets a green target in closed form without storage and
// with net metering, and brackets it for batteries.
package energy

import (
	"errors"
	"fmt"
	"math"
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

// Errors returned by Totals and Green.
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

// Green runs the same simulation as Totals but returns only the energy
// green sources covered (direct use plus storage discharge), the number a
// green-fraction probe needs; the caller holds the demand energy, which
// does not depend on the plant.  Each storage mode gets its own loop with
// the demand and brown accounting left out; every operation it keeps is
// Totals' own, in the same order, so the result equals GreenUsedKWh +
// BattDischargedKWh + NetDischargedKWh of Totals bit for bit.
func Green(s *Site, p Plant) (float64, error) {
	n, eff, err := s.check()
	if err != nil {
		return 0, err
	}
	alpha, beta, demandKW := s.Alpha[:n], s.Beta[:n], s.DemandKW[:n]
	solar, wind, hours := p.SolarKW, p.WindKW, s.EpochHours
	used := 0.0
	switch s.Mode {
	case NoStorage:
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
			direct := green
			if direct > demand {
				direct = demand
			}
			used += direct * hours
		}
		return used, nil
	case NetMetering:
		netLevel, discharged := 0.0, 0.0
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
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
		return used + discharged, nil
	default: // Batteries
		capKWh := p.BatteryKWh
		battLevel, discharged := 0.0, 0.0
		for i := range demandKW {
			green := nonNegative(solar*alpha[i] + wind*beta[i])
			demand := nonNegative(demandKW[i])
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
		return used + discharged, nil
	}
}

// ScaleBracket brackets the smallest factor k at which the plant k·base
// (k·SolarKW, k·WindKW, k·BatteryKWh) covers target·demandKWh of s's demand
// from green sources under s.Mode, by inverting the greedy rule instead of
// searching it.  demandKWh is s's demand energy, Σ max(d_t, 0)·EpochHours,
// which Totals reports as DemandKWh; the caller sums it once.
//
//   - NoStorage: lo == hi == the smallest scale (noStorageScale).
//   - NetMetering: lo == hi == the smallest scale (netMeteringScale).
//   - Batteries: lo is the net-metering scale and hi the no-storage one: a
//     finite, lossy battery serves at least what no storage serves and at
//     most what the lossless, unbounded net-metering bank serves.  With
//     base.BatteryKWh == 0 the battery is no storage, and lo == hi.
//
// +Inf marks a target no scale reaches: lo = +Inf means none does, hi =
// +Inf alone (Batteries) that no storage does.  The bounds are exact in
// real arithmetic but computed in floating point, so a caller that needs
// the target met confirms the scale with a Green probe.
func ScaleBracket(s *Site, base Plant, demandKWh, target float64) (lo, hi float64, err error) {
	if _, _, err := s.check(); err != nil {
		return 0, 0, err
	}
	needKWh := target * demandKWh
	if needKWh <= 0 {
		return 0, 0, nil
	}
	switch s.Mode {
	case NoStorage:
		k := noStorageScale(s, base, needKWh)
		return k, k, nil
	case NetMetering:
		k := netMeteringScale(s, base, demandKWh, needKWh)
		return k, k, nil
	default: // Batteries
		hi = noStorageScale(s, base, needKWh)
		if base.BatteryKWh <= 0 {
			return hi, hi, nil
		}
		// The two coincide when no epoch has surplus; rounding must not
		// then leave the lower bound above the upper.
		return min(netMeteringScale(s, base, demandKWh, needKWh), hi), hi, nil
	}
}

// noStorageScale returns the smallest k at which green energy used without
// storage, F(k) = Σ min(k·g_t, d_t)·h, reaches needKWh > 0, or +Inf when
// no k does.  F is concave, nondecreasing and piecewise linear in k, with
// breakpoints d_t/g_t.  Newton's method from k = 0 steps along the tangent
// of F's piece right of k, which lies on or above F: a step lands on the
// root when the root is in that piece and otherwise stops short of it, past
// at least one breakpoint.  So k rises monotonically and the search ends
// within one step per epoch, each step one pass; it stops early once the
// shortfall is below 1e-13 of the target, the size of a pass's rounding,
// so that a shortfall that is only rounding does not buy another step (and
// an ulp of plant).  The target is unreachable exactly when the demand of
// the epochs that produce anything, F's supremum, falls short of it.  s has
// passed check.
func noStorageScale(s *Site, base Plant, needKWh float64) float64 {
	alpha, beta, demandKW := s.Alpha, s.Beta[:len(s.Alpha)], s.DemandKW[:len(s.Alpha)]
	solar, wind, hours := base.SolarKW, base.WindKW, s.EpochHours
	// At k = 0, F's slope is the production of every epoch with demand.
	reach, slope := 0.0, 0.0
	for i := range alpha {
		if g, d := solar*alpha[i]+wind*beta[i], demandKW[i]; g > 0 && d > 0 {
			reach += d * hours
			slope += g * hours
		}
	}
	if reach < needKWh {
		return math.Inf(1)
	}
	k := needKWh / slope
	for range alpha {
		served := 0.0
		slope = 0
		for i := range alpha {
			g := nonNegative(solar*alpha[i] + wind*beta[i])
			d := nonNegative(demandKW[i])
			if kg := k * g; kg < d {
				served += kg * hours
				slope += g * hours
			} else {
				served += d * hours
			}
		}
		if served >= needKWh*(1-1e-13) || slope <= 0 {
			break
		}
		next := k + (needKWh-served)/slope
		if next <= k {
			break // rounding: no further progress
		}
		k = next
	}
	return k
}

// netMeteringScale returns the smallest k at which the net-metering balance
// serves needKWh of the demand energy demandKWh, or +Inf when no k does.
// The bank starts empty and its level is a walk reflected at zero
// (Lindley's recursion), so the energy it leaves unserved is
// max(0, max_t (D_t − k·G_t)) over the prefix sums D_t of demand and G_t of
// production.  That is at most demandKWh − needKWh exactly when
// k·G_t ≥ D_t − demandKWh + needKWh for every t where the right side is
// positive: one pass, and unreachable exactly when such a t has G_t = 0.
// (D_t − demandKWh is formed first, so where D_t equals demandKWh the bound
// is needKWh itself.)  s has passed check.
func netMeteringScale(s *Site, base Plant, demandKWh, needKWh float64) float64 {
	alpha, beta, demandKW := s.Alpha, s.Beta[:len(s.Alpha)], s.DemandKW[:len(s.Alpha)]
	solar, wind, hours := base.SolarKW, base.WindKW, s.EpochHours
	k, demand, green := 0.0, 0.0, 0.0
	for i := range alpha {
		demand += nonNegative(demandKW[i]) * hours
		green += nonNegative(solar*alpha[i]+wind*beta[i]) * hours
		if over := demand - demandKWh + needKWh; over > 0 {
			if green <= 0 {
				return math.Inf(1)
			}
			k = max(k, over/green)
		}
	}
	return k
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
