// Package core implements the paper's placement framework: given a catalog
// of candidate sites, a desired total compute capacity, a minimum fraction of
// on-site green energy, a storage technology and an availability target, it
// sites datacenters, sizes their solar/wind plants and batteries, schedules
// the follow-the-renewables load across them, and minimizes the total
// monthly cost (financed CAPEX plus OPEX).
//
// Three solution paths are provided, mirroring Section II of the paper:
//
//   - Evaluator (and the one-shot Evaluate wrapper): the fast evaluator
//     that provisions a fixed siting (greedy follow-the-renewables load
//     schedule, exact plant sizing, storage balance) — the inner
//     loop of the heuristic solver.  An Evaluator preallocates all scratch
//     state for one (catalog, spec) pair; its EvaluateCost method is
//     allocation-free in steady state.
//   - Solve: the heuristic solver (location filtering + parallel simulated
//     annealing over sitings and sizes, using a pool of fast evaluators).
//     Chains are independent and merged deterministically, so results are
//     reproducible for a fixed seed regardless of parallelism.
//   - SolveExact: the MILP formulation of Fig. 1 solved with branch and
//     bound, tractable for small instances and used to validate the
//     heuristic.
package core

import (
	"errors"
	"fmt"

	"greencloud/internal/availability"
	"greencloud/internal/cost"
	"greencloud/internal/energy"
)

// SourceMix selects which on-site green technologies may be built.
type SourceMix int

// Source mixes.
const (
	// SolarOnly allows only photovoltaic plants.
	SolarOnly SourceMix = iota + 1
	// WindOnly allows only wind plants.
	WindOnly
	// SolarAndWind allows either or both at every site.
	SolarAndWind
)

// String returns the source mix name.
func (s SourceMix) String() string {
	switch s {
	case SolarOnly:
		return "solar"
	case WindOnly:
		return "wind"
	case SolarAndWind:
		return "solar+wind"
	default:
		return fmt.Sprintf("sources(%d)", int(s))
	}
}

// Spec is the service provider's input to the placement tool: what must be
// built and under which constraints.
type Spec struct {
	// TotalCapacityKW is the minimum compute power the datacenter network
	// must offer at every point in time (the paper's totalCapacity).
	TotalCapacityKW float64
	// MinGreenFraction is the minimum fraction of yearly energy that must
	// come from on-site green sources (0 = brown network, 1 = 100% green).
	MinGreenFraction float64
	// Storage selects how surplus green energy may be stored.
	Storage energy.StorageMode
	// Sources selects which green technologies may be built.
	Sources SourceMix
	// MinAvailability is the minimum availability of the network
	// (e.g. 0.99999 for five nines).
	MinAvailability float64
	// SiteAvailability is the availability of one datacenter (depends on
	// its tier); defaults to the paper's 99.827 %.
	SiteAvailability float64
	// MigrationFraction is the fraction of an epoch during which migrated
	// load consumes energy at both the donor and the receiver datacenter.
	// The paper's default (pessimistic) value is 1.0; Fig. 13 sweeps it.
	MigrationFraction float64
	// BatteryHours sizes battery banks as this many hours of the site's
	// average green production (Batteries storage only).
	BatteryHours float64
	// Cost holds the economic parameters (Table I defaults if zero).
	Cost cost.Params
}

// DefaultSpec returns the paper's base case: a 50 MW network with 50 % green
// energy, net metering, either source, five-nines availability.
func DefaultSpec() Spec {
	return Spec{
		TotalCapacityKW:   50_000,
		MinGreenFraction:  0.5,
		Storage:           energy.NetMetering,
		Sources:           SolarAndWind,
		MinAvailability:   0.99999,
		SiteAvailability:  availability.PaperDefault,
		MigrationFraction: 1.0,
		BatteryHours:      5,
		Cost:              cost.DefaultParams(),
	}
}

// Errors returned by spec validation and the solvers.
var (
	ErrBadSpec    = errors.New("core: invalid specification")
	ErrNoSites    = errors.New("core: no candidate sites")
	ErrInfeasible = errors.New("core: no feasible solution found")
)

// withDefaults fills zero-valued fields with the paper defaults.
func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if s.TotalCapacityKW == 0 {
		s.TotalCapacityKW = d.TotalCapacityKW
	}
	if s.Storage == 0 {
		s.Storage = d.Storage
	}
	if s.Sources == 0 {
		s.Sources = d.Sources
	}
	if s.MinAvailability == 0 {
		s.MinAvailability = d.MinAvailability
	}
	if s.SiteAvailability == 0 {
		s.SiteAvailability = d.SiteAvailability
	}
	if s.MigrationFraction == 0 {
		s.MigrationFraction = d.MigrationFraction
	}
	if s.BatteryHours == 0 {
		s.BatteryHours = d.BatteryHours
	}
	if s.Cost.ServerPowerW == 0 {
		s.Cost = d.Cost
	}
	return s
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.TotalCapacityKW <= 0 {
		return fmt.Errorf("%w: total capacity must be positive", ErrBadSpec)
	}
	if s.MinGreenFraction < 0 || s.MinGreenFraction > 1 {
		return fmt.Errorf("%w: green fraction must be in [0,1]", ErrBadSpec)
	}
	if s.MigrationFraction < 0 || s.MigrationFraction > 1 {
		return fmt.Errorf("%w: migration fraction must be in [0,1]", ErrBadSpec)
	}
	if s.MinAvailability < 0 || s.MinAvailability >= 1 {
		return fmt.Errorf("%w: availability must be in [0,1)", ErrBadSpec)
	}
	if s.SiteAvailability <= 0 || s.SiteAvailability > 1 {
		return fmt.Errorf("%w: site availability must be in (0,1]", ErrBadSpec)
	}
	switch s.Sources {
	case SolarOnly, WindOnly, SolarAndWind:
	default:
		return fmt.Errorf("%w: unknown source mix", ErrBadSpec)
	}
	switch s.Storage {
	case energy.NoStorage, energy.NetMetering, energy.Batteries:
	default:
		return fmt.Errorf("%w: unknown storage mode", ErrBadSpec)
	}
	if err := s.Cost.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// MinDatacenters returns the minimum number of datacenters required by the
// availability constraint.
func (s Spec) MinDatacenters() (int, error) {
	if s.MinAvailability <= 0 {
		return 1, nil
	}
	return availability.MinDatacenters(s.SiteAvailability, s.MinAvailability, 0)
}
