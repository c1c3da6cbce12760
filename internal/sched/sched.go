// Package sched implements GreenNebula's multi-datacenter scheduler
// (Section V-A of the paper).  Every hour the scheduler:
//
//  1. predicts each datacenter's green energy production 48 hours ahead,
//  2. collects the current workload (average power) at every datacenter,
//  3. solves a small linear program that re-partitions the workload across
//     the datacenters over the prediction horizon so as to minimize brown
//     energy use, accounting for the energy overhead of migrations, and
//  4. turns the first hour of that plan into a concrete migration schedule:
//     donors are ordered by decreasing amount of power to migrate out, each
//     donor sends VMs to the closest receiver first (first fit), choosing
//     VMs with the smallest memory/disk footprint first.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"greencloud/internal/lp"
	"greencloud/internal/series"
	"greencloud/internal/vm"
)

// DatacenterState is the scheduler's view of one datacenter for one
// scheduling round.
type DatacenterState struct {
	// Name identifies the datacenter.
	Name string
	// CapacityKW is the IT power capacity.
	CapacityKW float64
	// CurrentLoadKW is the IT power of the VMs currently hosted there.
	CurrentLoadKW float64
	// GreenForecastKW is the predicted green production for the next
	// horizon hours (facility-side power).
	GreenForecastKW []float64
	// PUE converts IT power into facility power (per forecast hour; a
	// single value is broadcast).
	PUE []float64
	// GridPriceUSDPerKWh prices any brown energy the site must draw.
	GridPriceUSDPerKWh float64
}

// pueAt returns the PUE for hour h, broadcasting a single value.
func (d DatacenterState) pueAt(h int) float64 {
	if len(d.PUE) == 0 {
		return 1.1
	}
	if h < len(d.PUE) {
		return d.PUE[h]
	}
	return d.PUE[len(d.PUE)-1]
}

// pueSeries fills dst with the PUE of each slot, applying the same
// broadcast rule as pueAt, so kernel passes over a horizon can consume the
// PUE as a dense row.
func (d DatacenterState) pueSeries(dst []float64) {
	for h := range dst {
		dst[h] = d.pueAt(h)
	}
}

// Options configures the scheduler.
type Options struct {
	// HorizonHours is the planning horizon (the paper uses 48).
	HorizonHours int
	// MigrationFraction is the fraction of an hour during which migrated
	// load consumes power at both ends (the paper's conservative value is
	// 1.0).
	MigrationFraction float64
	// BrownWeight scales how much the objective penalizes brown energy
	// versus migration churn; the default prices brown energy at each
	// site's grid price and migrations at the donor's grid price.
	BrownWeight float64
	// LPTimeout, when positive, bounds the wall-clock time of the partition
	// LP solve.  A solve that exceeds it degrades to the static greedy split
	// (Plan.Degraded) instead of blocking the scheduling round — an hourly
	// re-planner must deliver a valid plan on time, not a perfect plan late.
	LPTimeout time.Duration
	// Pricing selects the simplex pricing rule for the partition LP (the
	// zero value is lp.PricingDevex).
	Pricing lp.PricingRule
}

func (o Options) withDefaults() Options {
	if o.HorizonHours <= 0 {
		o.HorizonHours = 48
	}
	if o.MigrationFraction < 0 {
		o.MigrationFraction = 0
	}
	if o.MigrationFraction == 0 {
		o.MigrationFraction = 1
	}
	if o.BrownWeight <= 0 {
		o.BrownWeight = 1
	}
	return o
}

// Scheduler plans follow-the-renewables workload placement.  It owns the
// scratch rows its estimators reuse across calls, so a Scheduler must not
// be used concurrently.
type Scheduler struct {
	opts Options

	// Scratch for BrownEnergyIfStatic, grown to the horizon once and
	// reused (the repo-wide zero-steady-state-allocation idiom).
	deficit []float64
	pue     []float64
	loads   []float64

	// Cached partition LP.  The problem structure depends only on
	// (datacenter count, horizon), so consecutive Partition calls with the
	// same shape reuse one lp.Problem — only the right-hand sides (load,
	// forecasts), the capacity bounds, the PUE coefficients and the
	// price-derived costs are rewritten — and warm-start from the previous
	// round's optimal basis.  Hour-over-hour the forecasts barely move, so
	// the re-solve is a short dual-simplex restart instead of a two-phase
	// solve from scratch.
	//
	// Site capacity enters as the implicit variable bound
	// loadV[d][h] ∈ [0, CapacityKW] (valid because load ≤ load + overhead
	// ≤ capacity), so a capacity change between rounds is a pure SetBounds
	// data edit and a full-capacity hour parks the load column
	// nonbasic-at-upper — a bound flip instead of a basis pivot on the
	// capacity row.  Only the overhead-inclusive limit load + mig ≤ cap
	// stays a row, because it genuinely couples two variables.
	lpProb    *lp.Problem
	lpN       int
	lpHorizon int
	loadV     [][]lp.Var
	migV      [][]lp.Var
	brownV    [][]lp.Var
	conPlace  []int
	conMig    [][]int
	conBrown  [][]int
	conCap    [][]int
	basis     *lp.Basis
}

// New returns a scheduler.
func New(opts Options) *Scheduler {
	return &Scheduler{opts: opts.withDefaults()}
}

// Reset drops the warm-start basis so the next Partition call solves cold,
// while keeping the cached LP structure (it is shape-keyed and survives).
// An emul.Runner reuses one Scheduler across emulation runs: the structure
// may carry over, the basis must not leak between independent runs.
func (s *Scheduler) Reset() { s.basis = nil }

// WarmBasis returns the partition LP basis carried from the last healthy
// round, or nil when the scheduler would solve cold.  A continuous planner
// persists it (lp.Basis.MarshalBinary) so a restarted process can resume
// warm instead of cold.
func (s *Scheduler) WarmBasis() *lp.Basis { return s.basis }

// SetWarmBasis installs a basis — typically decoded from a snapshot with
// lp.DecodeBasis — to warm-start the next Partition round.  A basis that no
// longer matches the partition LP costs one silent cold fallback
// (lp.SolveFrom's contract), never correctness.
func (s *Scheduler) SetWarmBasis(b *lp.Basis) { s.basis = b }

// Errors returned by the scheduler.
var (
	ErrNoDatacenters    = errors.New("sched: no datacenters")
	ErrOverCapacity     = errors.New("sched: total load exceeds total capacity")
	ErrForecastTooShort = errors.New("sched: green forecast shorter than the horizon")
)

// Plan is the scheduler's output for one round.
type Plan struct {
	// LoadKW[d][h] is the IT power datacenter d should run during hour h
	// of the horizon.
	LoadKW [][]float64
	// BrownKWh is the predicted brown energy use over the horizon under
	// this plan.
	BrownKWh float64
	// MigratedKW is the total power that changes datacenter between the
	// current placement and the plan's first hour.
	MigratedKW float64
	// Degraded is true when the partition LP failed (or ran past
	// Options.LPTimeout) and the plan is the static greedy split instead of
	// the LP optimum: every datacenter keeps its current load (clipped to
	// capacity), with any unplaced remainder routed to the greenest
	// headroom.  A degraded plan is always feasible — loads within capacity,
	// every hour's total equal to the requested load.
	Degraded bool
	// DegradedReason describes the solver failure behind a degraded plan.
	DegradedReason string
	// LPStats is the partition LP's solve statistics for this round (zero
	// when the plan is degraded: a fallback plan did no simplex work worth
	// reporting).  ColdFallbacks stays 0 on warm rounds.
	LPStats lp.Stats
}

// Partition solves the workload-partitioning LP: how much IT power each
// datacenter should run during every hour of the horizon to minimize brown
// energy, given the green-energy forecasts, PUEs, capacities and the energy
// overhead of migrations.
func (s *Scheduler) Partition(dcs []DatacenterState, totalLoadKW float64) (*Plan, error) {
	if len(dcs) == 0 {
		return nil, ErrNoDatacenters
	}
	horizon := s.opts.HorizonHours
	totalCapacity := 0.0
	for _, d := range dcs {
		if len(d.GreenForecastKW) < horizon {
			return nil, fmt.Errorf("%w: %s has %d hours, need %d",
				ErrForecastTooShort, d.Name, len(d.GreenForecastKW), horizon)
		}
		totalCapacity += d.CapacityKW
	}
	if totalLoadKW > totalCapacity+1e-9 {
		return nil, fmt.Errorf("%w: %.1f kW over %.1f kW", ErrOverCapacity, totalLoadKW, totalCapacity)
	}

	n := len(dcs)
	if s.lpProb == nil || s.lpN != n || s.lpHorizon != horizon {
		if err := s.buildPartitionLP(n, horizon); err != nil {
			return nil, err
		}
	}
	if err := s.updatePartitionLP(dcs, totalLoadKW); err != nil {
		return nil, err
	}

	lpOpts := lp.SolveOptions{Pricing: s.opts.Pricing}
	if s.opts.LPTimeout > 0 {
		lpOpts.Deadline = time.Now().Add(s.opts.LPTimeout)
	}
	sol, err := s.lpProb.SolveFromWithOptions(s.basis, lpOpts)
	if err != nil {
		// Degrade, don't fail: the inputs were validated above, so the only
		// way here is a solver failure (numerical, deadline), and the hourly
		// controller still needs a plan.  Fall back to the static greedy
		// split and say so in the plan.
		s.basis = nil
		return s.staticFallback(dcs, totalLoadKW, fmt.Sprintf("partition LP: %v", err)), nil
	}
	s.basis = sol.Basis()

	plan := &Plan{LoadKW: make([][]float64, n), LPStats: sol.Stats}
	for d := range dcs {
		plan.LoadKW[d] = make([]float64, horizon)
		for h := 0; h < horizon; h++ {
			plan.LoadKW[d][h] = sol.Value(s.loadV[d][h])
			plan.BrownKWh += sol.Value(s.brownV[d][h])
		}
		moved := dcs[d].CurrentLoadKW - plan.LoadKW[d][0]
		if moved > 0 {
			plan.MigratedKW += moved
		}
	}
	return plan, nil
}

// buildPartitionLP constructs the partition LP's structure for the given
// shape, recording every variable handle and constraint index so
// updatePartitionLP can rewrite the round-specific numbers in place.  All
// coefficients, costs, bounds and right-hand sides are placeholders here;
// a cached problem is never solved without updatePartitionLP running first.
//
// Capacity appears twice, deliberately asymmetrically.  The binding limit
// load + mig ≤ cap must stay a row (it couples two variables), but the
// load variable additionally carries the implicit bound [0, cap] — implied
// by that row, so the feasible set is unchanged — because the bounded
// simplex then parks a site that runs at full capacity nonbasic-at-upper:
// the green-rich hours that used to pivot on the capacity row become bound
// flips with no basis change at all.  (An earlier draft replaced the cap
// row with a total-power variable bounded by capacity; that made the new
// variable basic in almost every datacenter-hour — it equals the load at
// the optimum — and cost ~n·horizon extra cold-solve pivots, a measured
// ~30% SchedulerComputeTime regression, so the row stayed.)
func (s *Scheduler) buildPartitionLP(n, horizon int) error {
	prob := lp.NewProblem(lp.Minimize)
	if s.lpProb != nil {
		// A basis of the previous shape is meaningless here.  On the first
		// build the basis is kept: it was installed by SetWarmBasis (a
		// restarted planner resuming warm), not carried from another shape.
		s.basis = nil
	}
	s.lpProb, s.lpN, s.lpHorizon = nil, 0, 0
	s.loadV = makeVarGrid(n, horizon)
	s.migV = makeVarGrid(n, horizon)
	s.brownV = makeVarGrid(n, horizon)
	s.conPlace = make([]int, horizon)
	s.conMig = makeIntGrid(n, horizon)
	s.conBrown = makeIntGrid(n, horizon)
	s.conCap = makeIntGrid(n, horizon)

	var err error
	for d := 0; d < n; d++ {
		for h := 0; h < horizon; h++ {
			if s.loadV[d][h], err = prob.AddVariable("load", 0, lp.Infinity, 0); err != nil {
				return err
			}
			if s.migV[d][h], err = prob.AddVariable("mig", 0, lp.Infinity, 0); err != nil {
				return err
			}
			if s.brownV[d][h], err = prob.AddVariable("brown", 0, lp.Infinity, 0); err != nil {
				return err
			}
		}
	}

	next := 0
	for h := 0; h < horizon; h++ {
		// All load must be placed somewhere every hour.
		terms := make([]lp.Term, n)
		for d := 0; d < n; d++ {
			terms[d] = lp.Term{Var: s.loadV[d][h], Coeff: 1}
		}
		if err := prob.AddConstraint("place", lp.EQ, 0, terms...); err != nil {
			return err
		}
		s.conPlace[h] = next
		next++
	}
	f := s.opts.MigrationFraction
	for d := 0; d < n; d++ {
		for h := 0; h < horizon; h++ {
			// Migration overhead: load leaving this site between h−1 and h
			// burns power here for a fraction of hour h.
			terms := []lp.Term{
				{Var: s.migV[d][h], Coeff: 1},
				{Var: s.loadV[d][h], Coeff: f},
			}
			if h > 0 {
				terms = append(terms, lp.Term{Var: s.loadV[d][h-1], Coeff: -f})
			}
			if err := prob.AddConstraint("migOut", lp.GE, 0, terms...); err != nil {
				return err
			}
			s.conMig[d][h] = next
			next++
			// Brown power covers whatever facility demand the green
			// forecast cannot: PUE·(load + mig) − brown ≤ green.  Written
			// in ≤ form so a zero-green hour still standardizes to a slack
			// start instead of an artificial.
			if err := prob.AddConstraint("brown", lp.LE, 0,
				lp.Term{Var: s.loadV[d][h], Coeff: 1},
				lp.Term{Var: s.migV[d][h], Coeff: 1},
				lp.Term{Var: s.brownV[d][h], Coeff: -1}); err != nil {
				return err
			}
			s.conBrown[d][h] = next
			next++
			// Capacity must also cover the migration overhead.
			if err := prob.AddConstraint("cap", lp.LE, 0,
				lp.Term{Var: s.loadV[d][h], Coeff: 1},
				lp.Term{Var: s.migV[d][h], Coeff: 1}); err != nil {
				return err
			}
			s.conCap[d][h] = next
			next++
		}
	}
	s.lpProb, s.lpN, s.lpHorizon = prob, n, horizon
	return nil
}

// updatePartitionLP rewrites the round-specific numbers of the cached LP:
// right-hand sides (total load, current loads, green forecasts,
// capacities), the per-site capacity bounds on the load variables, the
// per-hour PUE coefficients of the brown rows, and the price-derived
// variable costs.
func (s *Scheduler) updatePartitionLP(dcs []DatacenterState, totalLoadKW float64) error {
	prob := s.lpProb
	horizon := s.lpHorizon
	f := s.opts.MigrationFraction
	for h := 0; h < horizon; h++ {
		if err := prob.SetRHS(s.conPlace[h], totalLoadKW); err != nil {
			return err
		}
	}
	for d, dc := range dcs {
		// A tiny cost on migration power discourages gratuitous churn
		// beyond its real energy cost.
		migCost := dc.GridPriceUSDPerKWh * 0.1
		brownCost := s.opts.BrownWeight * dc.GridPriceUSDPerKWh
		for h := 0; h < horizon; h++ {
			if err := prob.SetCost(s.migV[d][h], migCost); err != nil {
				return err
			}
			if err := prob.SetCost(s.brownV[d][h], brownCost); err != nil {
				return err
			}
			if err := prob.SetBounds(s.loadV[d][h], 0, dc.CapacityKW); err != nil {
				return err
			}
			rhs := 0.0
			if h == 0 {
				rhs = f * dc.CurrentLoadKW
			}
			if err := prob.SetRHS(s.conMig[d][h], rhs); err != nil {
				return err
			}
			pue := dc.pueAt(h)
			c := s.conBrown[d][h]
			if err := prob.SetRHS(c, dc.GreenForecastKW[h]); err != nil {
				return err
			}
			if err := prob.SetCoeff(c, s.loadV[d][h], pue); err != nil {
				return err
			}
			if err := prob.SetCoeff(c, s.migV[d][h], pue); err != nil {
				return err
			}
			if err := prob.SetRHS(s.conCap[d][h], dc.CapacityKW); err != nil {
				return err
			}
		}
	}
	return nil
}

func makeVarGrid(n, horizon int) [][]lp.Var {
	out := make([][]lp.Var, n)
	for d := range out {
		out[d] = make([]lp.Var, horizon)
	}
	return out
}

func makeIntGrid(n, horizon int) [][]int {
	out := make([][]int, n)
	for d := range out {
		out[d] = make([]int, horizon)
	}
	return out
}

// Migration is one VM move the scheduler orders.
type Migration struct {
	VM   vm.VM
	From string
	To   string
}

// MigrationSchedule turns the difference between the current per-datacenter
// loads and the plan's first-hour loads into per-VM migration orders, using
// the paper's policy: donors in decreasing order of power to shed, first-fit
// to the closest receiver, smallest-footprint VMs first.
func (s *Scheduler) MigrationSchedule(dcs []DatacenterState, placements map[string]vm.Fleet,
	plan *Plan, distance func(a, b string) float64) ([]Migration, error) {

	if plan == nil || len(plan.LoadKW) != len(dcs) {
		return nil, errors.New("sched: plan does not match the datacenter list")
	}
	if distance == nil {
		distance = func(a, b string) float64 { return 0 }
	}

	type delta struct {
		name    string
		surplus float64 // positive: must shed this much power
	}
	deltas := make([]delta, 0, len(dcs))
	headroom := make(map[string]float64, len(dcs))
	for d, dc := range dcs {
		target := plan.LoadKW[d][0]
		diff := dc.CurrentLoadKW - target
		deltas = append(deltas, delta{name: dc.Name, surplus: diff})
		if diff < 0 {
			headroom[dc.Name] = -diff
		}
	}
	// Donors in decreasing amount of power to migrate out.
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].surplus > deltas[j].surplus })

	var out []Migration
	for _, donor := range deltas {
		if donor.surplus <= 1e-9 {
			continue
		}
		fleet := placements[donor.name]
		if !fleet.IsSortedByFootprint() {
			fleet = fleet.SortByFootprint()
		}
		toShedW := donor.surplus * 1000

		// Receivers closest to this donor first.
		receivers := make([]string, 0, len(headroom))
		for name := range headroom {
			receivers = append(receivers, name)
		}
		sort.Slice(receivers, func(i, j int) bool {
			di, dj := distance(donor.name, receivers[i]), distance(donor.name, receivers[j])
			if di != dj {
				return di < dj
			}
			return receivers[i] < receivers[j]
		})

		for _, machine := range fleet {
			if toShedW <= 1e-9 {
				break
			}
			placed := false
			for _, r := range receivers {
				if headroom[r]*1000 >= machine.PowerW {
					out = append(out, Migration{VM: machine, From: donor.name, To: r})
					headroom[r] -= machine.PowerW / 1000
					toShedW -= machine.PowerW
					placed = true
					break
				}
			}
			if !placed {
				// No receiver can take this VM; try the next (smaller ones
				// were already tried, so larger ones will not fit either).
				break
			}
		}
	}
	return out, nil
}

// BrownEnergyIfStatic estimates the brown energy over the horizon if no load
// were ever migrated (everything stays where it is), used as the baseline
// the scheduler's plan is compared against.  The per-slot deficit
// (load·PUE − green, positive part summed) is one Scale/AXPY/SumPositive
// kernel chain per datacenter over the horizon row, bit-identical to the
// scalar loop it replaced: Scale-then-AXPY(−1) rather than one WeightedSum
// keeps the two-rounding shape even where the target fuses multiply-adds
// (the −1 product is exact), and threading the accumulator through
// SumPositive keeps one addition chain across all datacenters.
func (s *Scheduler) BrownEnergyIfStatic(dcs []DatacenterState) float64 {
	s.loads = s.loads[:0]
	for _, dc := range dcs {
		s.loads = append(s.loads, dc.CurrentLoadKW)
	}
	return s.brownEnergyForLoads(dcs, s.loads)
}

// brownEnergyForLoads is the kernel chain behind BrownEnergyIfStatic for an
// arbitrary constant per-datacenter load split, shared with the degraded
// fallback plan so its BrownKWh is computed exactly like the static baseline.
func (s *Scheduler) brownEnergyForLoads(dcs []DatacenterState, loads []float64) float64 {
	total := 0.0
	for d, dc := range dcs {
		h := s.opts.HorizonHours
		if h > len(dc.GreenForecastKW) {
			h = len(dc.GreenForecastKW)
		}
		s.deficit = series.Grow(s.deficit, h)
		s.pue = series.Grow(s.pue, h)
		dc.pueSeries(s.pue)
		series.Scale(s.deficit, loads[d], s.pue)
		series.AXPY(s.deficit, -1, dc.GreenForecastKW[:h])
		total = series.SumPositive(total, s.deficit)
	}
	return total
}

// staticFallback is the degraded plan used when the partition LP cannot
// deliver: every datacenter keeps its current load clipped to capacity, any
// unplaced remainder goes to the greenest available headroom (and any excess
// is shed from the least green sites), and the split is held constant over
// the horizon.  The result always satisfies the plan invariants — per-hour
// totals equal the requested load, no datacenter above capacity — because
// Partition validated totalLoadKW against total capacity before calling.
func (s *Scheduler) staticFallback(dcs []DatacenterState, totalLoadKW float64, reason string) *Plan {
	n := len(dcs)
	horizon := s.opts.HorizonHours
	loads := make([]float64, n)
	assigned := 0.0
	for d, dc := range dcs {
		l := dc.CurrentLoadKW
		if l < 0 {
			l = 0
		}
		if l > dc.CapacityKW {
			l = dc.CapacityKW
		}
		loads[d] = l
		assigned += l
	}
	remaining := totalLoadKW - assigned
	if remaining > 0 {
		for _, d := range s.greenOrder(dcs) {
			room := dcs[d].CapacityKW - loads[d]
			if room <= 0 {
				continue
			}
			add := math.Min(room, remaining)
			loads[d] += add
			remaining -= add
			if remaining <= 0 {
				break
			}
		}
	} else if remaining < 0 {
		order := s.greenOrder(dcs)
		for i := len(order) - 1; i >= 0 && remaining < 0; i-- {
			d := order[i]
			cut := math.Min(loads[d], -remaining)
			loads[d] -= cut
			remaining += cut
		}
	}

	plan := &Plan{
		LoadKW:         make([][]float64, n),
		Degraded:       true,
		DegradedReason: reason,
	}
	for d := range dcs {
		row := make([]float64, horizon)
		for h := range row {
			row[h] = loads[d]
		}
		plan.LoadKW[d] = row
		if moved := dcs[d].CurrentLoadKW - loads[d]; moved > 0 {
			plan.MigratedKW += moved
		}
	}
	plan.BrownKWh = s.brownEnergyForLoads(dcs, loads)
	return plan
}

// greenOrder returns datacenter indices sorted by decreasing mean green
// forecast over the horizon (ties by index), the deterministic order in which
// the degraded fallback hands out spare load.
func (s *Scheduler) greenOrder(dcs []DatacenterState) []int {
	horizon := s.opts.HorizonHours
	mean := make([]float64, len(dcs))
	for d, dc := range dcs {
		h := horizon
		if h > len(dc.GreenForecastKW) {
			h = len(dc.GreenForecastKW)
		}
		sum := 0.0
		for _, g := range dc.GreenForecastKW[:h] {
			sum += g
		}
		if h > 0 {
			mean[d] = sum / float64(h)
		}
	}
	order := make([]int, len(dcs))
	for d := range order {
		order[d] = d
	}
	sort.Slice(order, func(i, j int) bool {
		if mean[order[i]] != mean[order[j]] {
			return mean[order[i]] > mean[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// RoundLoads snaps a fractional power split onto whole VMs of the given
// power, preserving the total count (largest remainder method).  The
// emulation uses it to convert the LP's continuous loads into VM counts.
func RoundLoads(loadKW []float64, vmPowerW float64, totalVMs int) []int {
	n := len(loadKW)
	counts := make([]int, n)
	if totalVMs <= 0 || vmPowerW <= 0 {
		return counts
	}
	type frac struct {
		idx  int
		frac float64
	}
	fracs := make([]frac, n)
	assigned := 0
	for i, l := range loadKW {
		exact := l * 1000 / vmPowerW
		counts[i] = int(math.Floor(exact + 1e-9))
		if counts[i] < 0 {
			counts[i] = 0
		}
		assigned += counts[i]
		fracs[i] = frac{idx: i, frac: exact - float64(counts[i])}
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].frac > fracs[j].frac })
	for i := 0; assigned < totalVMs && i < len(fracs); i++ {
		counts[fracs[i].idx]++
		assigned++
	}
	// If rounding overshot (possible when loads exceed the fleet), trim.
	for i := 0; assigned > totalVMs && i < n; i++ {
		over := assigned - totalVMs
		if counts[i] >= over {
			counts[i] -= over
			assigned -= over
		}
	}
	return counts
}
