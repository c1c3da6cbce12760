package core

import (
	"fmt"
	"math"

	"greencloud/internal/cost"
	"greencloud/internal/energy"
	"greencloud/internal/location"
	"greencloud/internal/series"
)

// CostSummary is the compact result of a cost-only evaluation: everything
// the annealing search needs to rank a candidate siting, with none of the
// per-site detail a full Solution carries.
type CostSummary struct {
	// MonthlyUSD is the total monthly cost of the provisioned network.
	MonthlyUSD float64
	// GreenFraction is the achieved network-wide green fraction.
	GreenFraction float64
	// Feasible reports whether every constraint is met.
	Feasible bool
}

// Evaluator is the reusable fast evaluator: it owns preallocated scratch
// state for one (catalog, spec) pair so that repeated evaluations of
// candidate sitings perform no heap allocations in steady state.
//
// The evaluation pipeline is split into a cheap shared schedule merge and an
// expensive per-site stage, and the per-site stage is memoized:
//
//   - The schedule merge assigns the network load across the candidate sites
//     per epoch (follow-the-renewables first, cheapest brown power second),
//     driven by per-site reference plants that depend only on each site's own
//     static profile and capacity.  It always runs: any move can shift load
//     between sites.
//   - The per-site stage (migration overhead, facility demand, plant
//     sizing, battery sizing, energy balance, monthly cost) is a pure
//     function of (site, capacity, schedule row, spec).  Its outputs are
//     cached per site; a site is re-run only when its capacity or its
//     schedule row changed.  Plant sizing is exact: energy.ScaleBracket's
//     closed forms give the smallest plant without storage and with net
//     metering, and bracket it for batteries, where a short bisection
//     finishes; one probe of energy.Green, the mode-specialized sizing
//     kernel, confirms the result.  energy.Totals, the full balance, runs
//     once on the final plant.  All three read the site's α/β rows and
//     demand row through one reused energy.Site, so a probe copies nothing.
//
// Invalidation protocol: every site is validated by content — its cache
// entry is reused iff the entry's capacity matches and its schedule-row
// digest (series.Digest, computed once per merge) matches the row's current
// digest.  The caller says nothing about what changed, so a cached
// evaluation is bit-identical to evaluating from scratch up to a digest
// collision on two distinct rows (≈2⁻⁶⁴ per comparison).
//
// Reuse contract: an Evaluator is bound to the catalog and spec it was
// created with; scratch buffers grow to the largest candidate set seen and
// cache entries are allocated once per distinct site, so a steady-state
// EvaluateCost call is allocation-free.  The cache keeps one entry per
// site, so an Evaluator that lives as long as a daemon stays bounded by its
// catalog; Solve's annealing chains remember whole sitings in a chain-local
// memo of their own (heuristic.go).  The full Evaluate method allocates
// only the returned *Solution, its sites and its violation messages.  An
// Evaluator is NOT safe for concurrent use — create one per goroutine (the
// annealing chains in Solve each own one).
type Evaluator struct {
	evalTables

	// Per-call candidate state.
	n          int
	sites      []*location.Site
	rows       []int // each candidate's position in the catalog
	capacities []float64

	// Per-call scratch, n×epochs epoch-major matrices (one row per
	// candidate site).  All four are single-owner scratch Blocks under the
	// series mutability contract: reshaped per call, every row fully
	// overwritten before it is read.
	compute   series.Block // IT load assigned by the schedule merge
	migration series.Block // migration overhead power
	demand    series.Block // facility power demand
	avail     series.Block // per-epoch green availability of the reference plants

	// rowDigest[i] is the series.Digest of site i's current schedule row,
	// computed once per merge; the per-site cache revalidates clean sites
	// against it in O(1) instead of re-comparing full rows.
	rowDigest []uint64

	// Per-call scratch, length n.
	brownRank []int
	availIdx  []int
	availVal  []float64
	refSolar  []float64
	refWind   []float64
	solarKW   []float64
	windKW    []float64
	outs      []siteOutputs

	// bal is the energy balance input of the site being priced: Mode,
	// EpochHours and BatteryEfficiency are fixed per evaluator, and
	// balanceOf points the profiles and the demand row at one site.
	bal energy.Site

	// cache holds the memoized per-site stage results, keyed by site ID.
	// noCache disables memoization for evaluators whose call pattern never
	// revisits a site (the location-filter and per-location figure probes),
	// where cache entries would be allocated but never hit.
	cache   map[int]*siteEntry
	noCache bool

	// sizeRef, set only by tests, replaces siteScale with the frozen
	// doubling-and-bisection search in sizing_ref_test.go.
	sizeRef func(e *Evaluator, i int, baseSolar, baseWind, demandKWh float64) (float64, error)
}

// evalTables is the read-only part of an Evaluator: the catalog, the spec
// and the per-catalog static caches, written once by NewEvaluator.  fork
// shares one evalTables value (and so its slices' backing arrays) between
// evaluators of the same (catalog, spec) pair, which may read it
// concurrently.
type evalTables struct {
	cat    *location.Catalog
	all    []*location.Site // cat.Sites(): a site's position is its Catalog.Index
	spec   Spec
	epochs int
	minDCs int
	hours  float64 // hours every epoch represents (the catalog's uniform epoch weight)

	// Per-catalog static caches, indexed by catalog position.
	brownKey []float64 // grid price × average PUE: the brown-rank key
	ucSolar  []float64 // unit green cost of solar ($ per monthly kWh)
	ucWind   []float64 // unit green cost of wind
	solarTW  []float64 // tech-weight split between solar and wind
	windTW   []float64
	pueKWh   []float64 // Σ_t PUE[t]·hours: yearly facility kWh of 1 kW IT load
}

// siteOutputs is everything the per-site stage produces for one site: the
// provisioning, the yearly energy totals and the monthly cost.  It contains
// only scalars, so cached results copy by assignment.
type siteOutputs struct {
	SolarKW    float64
	WindKW     float64
	BatteryKWh float64
	DemandKWh  float64
	GreenKWh   float64
	MaxBrownKW float64
	Breakdown  cost.Breakdown
}

// siteEntry is one memoized per-site stage result together with the inputs
// it was computed for (the validation key).  The schedule row itself is not
// stored: its series.Digest stands in for it, which shrinks the entry to a
// few scalars and makes clean-site revalidation O(1) instead of O(epochs).
type siteEntry struct {
	capacityKW float64
	digest     uint64 // series.Digest of the schedule row the outputs correspond to
	out        siteOutputs
}

// NewEvaluator builds an evaluator for the catalog and spec, precomputing
// the per-site static quantities the hot path needs: the brown-cost rank
// key, unit green production costs, the solar/wind technology split and the
// epoch-weighted PUE sum of every site.
func NewEvaluator(cat *location.Catalog, spec Spec) (*Evaluator, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	minDCs, err := spec.MinDatacenters()
	if err != nil {
		return nil, err
	}
	t := evalTables{
		cat:    cat,
		spec:   spec,
		epochs: cat.Epochs(),
		minDCs: minDCs,
		all:    cat.Sites(),
		hours:  cat.EpochWeight(),
	}
	nSites := cat.Len()
	t.brownKey = make([]float64, nSites)
	t.ucSolar = make([]float64, nSites)
	t.ucWind = make([]float64, nSites)
	t.solarTW = make([]float64, nSites)
	t.windTW = make([]float64, nSites)
	t.pueKWh = make([]float64, nSites)
	for row, s := range t.all {
		t.brownKey[row] = s.GridPriceUSDPerKWh * s.AvgPUE
		t.ucSolar[row] = unitGreenCost(s, true, spec.Cost)
		t.ucWind[row] = unitGreenCost(s, false, spec.Cost)
		t.solarTW[row], t.windTW[row] = techWeights(t.ucSolar[row], t.ucWind[row], spec)
		t.pueKWh[row] = series.SumScaled(s.PUE, t.hours)
	}
	return t.evaluator(), nil
}

// fork returns a fresh evaluator for e's catalog and spec — the same as
// NewEvaluator would build — that shares e's read-only tables instead of
// recomputing them, and owns its own scratch state and cache.  Solve's
// annealing chains and FilterSites' workers fork one evaluator each.
func (e *Evaluator) fork() *Evaluator { return e.evalTables.evaluator() }

// evaluator wraps t in an evaluator with empty scratch state and cache.
func (t evalTables) evaluator() *Evaluator {
	return &Evaluator{
		evalTables: t,
		bal: energy.Site{
			EpochHours:        t.hours,
			Mode:              t.spec.Storage,
			BatteryEfficiency: t.spec.Cost.BatteryEfficiency,
		},
		cache: make(map[int]*siteEntry),
	}
}

// Evaluate provisions and prices the candidate siting, returning a full
// Solution with per-site detail.  Only the returned Solution is allocated;
// all intermediate state comes from the evaluator's scratch buffers.  The
// per-site cache is bypassed (and left untouched), but the arithmetic is the
// same, so the Solution agrees bit-for-bit with EvaluateCost.
func (e *Evaluator) Evaluate(candidates []Candidate) (*Solution, error) {
	sol := &Solution{Feasible: true}
	if _, err := e.run(candidates, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// EvaluateCost is the annealing inner loop: it provisions and prices the
// candidate siting exactly like Evaluate but returns only the cost summary,
// performing zero heap allocations in steady state.  Every site is
// validated against the per-site cache by content, so a site whose capacity
// and schedule row are unchanged reuses its memoized stage.
func (e *Evaluator) EvaluateCost(candidates []Candidate) (CostSummary, error) {
	return e.run(candidates, nil)
}

// DisableCache turns off per-site memoization for this evaluator.  Probe
// loops that price every site exactly once (location filtering, the
// per-location cost figures) disable it so they do not allocate cache
// entries that can never be hit; the arithmetic is unchanged either way.
func (e *Evaluator) DisableCache() { e.noCache = true }

// run executes the evaluation pipeline: shared schedule merge, per-site
// stages (memoized unless sol is requested), the network-level green top-up
// when per-site sizing cannot reach the target alone, and the final
// aggregation.  When sol is non-nil the per-site results and violation
// messages are materialized into it.
func (e *Evaluator) run(candidates []Candidate, sol *Solution) (CostSummary, error) {
	if err := e.prepare(candidates); err != nil {
		return CostSummary{}, err
	}
	spec := &e.spec
	n := e.n
	useCache := sol == nil && !e.noCache
	feasible := true

	totalCap := series.Sum(e.capacities[:n])
	if totalCap+1e-6 < spec.TotalCapacityKW {
		feasible = false
		if sol != nil {
			sol.addViolation("provisioned capacity %.1f kW below required %.1f kW", totalCap, spec.TotalCapacityKW)
		}
	}
	if n < e.minDCs {
		feasible = false
		if sol != nil {
			sol.addViolation("%d datacenters cannot reach availability %.5f (need ≥ %d)",
				n, spec.MinAvailability, e.minDCs)
		}
	}
	// Survivability: each datacenter must hold at least a 1/n share.
	minShare := spec.TotalCapacityKW / float64(n)
	for i, c := range e.capacities[:n] {
		if c+1e-6 < minShare {
			feasible = false
			if sol != nil {
				sol.addViolation("site %s capacity %.1f kW below survivable share %.1f kW",
					e.sites[i].Name, c, minShare)
			}
			break
		}
	}

	// Shared schedule merge: reference plants (site-local) drive the
	// follow-the-renewables assignment.
	e.referencePlants()
	e.scheduleLoad()
	if useCache {
		// One digest per schedule row; clean sites revalidate against it in
		// O(1) below instead of re-comparing the full row.
		for i := 0; i < n; i++ {
			e.rowDigest[i] = series.Digest(e.compute.Row(i))
		}
	}

	// Per-site stages.
	outs := e.outs[:n]
	totalDemandKWh, totalGreenKWh := 0.0, 0.0
	plantKW := 0.0
	for i := 0; i < n; i++ {
		if err := e.siteOutputsInto(i, useCache, &outs[i]); err != nil {
			return CostSummary{}, err
		}
		totalDemandKWh += outs[i].DemandKWh
		totalGreenKWh += outs[i].GreenKWh
		plantKW += outs[i].SolarKW + outs[i].WindKW
	}
	greenFraction := 1.0
	if totalDemandKWh > 0 {
		greenFraction = math.Min(1, totalGreenKWh/totalDemandKWh)
	}

	// Network top-up: when some site cannot reach the green target from its
	// own demand (capped plant scale, unviable technology), scale every
	// site's plants by a common factor until the network-wide fraction
	// reaches the target.  This stage is global, runs fresh every time, and
	// consumes only the (cached or recomputed) per-site base sizings, so it
	// preserves the bit-identity of delta and full evaluation.
	if spec.MinGreenFraction > 0 && greenFraction+1e-3 < spec.MinGreenFraction && plantKW > 0 {
		e.refreshDemandRows()
		lambda, err := e.topUpScale(outs)
		if err != nil {
			return CostSummary{}, err
		}
		totalDemandKWh, totalGreenKWh = 0, 0
		for i := 0; i < n; i++ {
			if err := e.reaccount(i, lambda, &outs[i]); err != nil {
				return CostSummary{}, err
			}
			totalDemandKWh += outs[i].DemandKWh
			totalGreenKWh += outs[i].GreenKWh
		}
		greenFraction = 1.0
		if totalDemandKWh > 0 {
			greenFraction = math.Min(1, totalGreenKWh/totalDemandKWh)
		}
	}

	// Final accounting and, for the full path, materialization.
	aggregate := cost.Breakdown{}
	for i := 0; i < n; i++ {
		out := &outs[i]
		site := e.sites[i]
		if out.MaxBrownKW > site.NearestPlantKW*maxBrownShareOfPlant {
			feasible = false
			if sol != nil {
				sol.addViolation("site %s draws %.0f kW of brown power, above %.0f%% of the nearest plant (%.0f kW)",
					site.Name, out.MaxBrownKW, 100*maxBrownShareOfPlant, site.NearestPlantKW)
			}
		}
		aggregate = aggregate.Add(out.Breakdown)
		if sol != nil {
			e.materializeSite(i, out, sol)
		}
	}
	if greenFraction+1e-3 < spec.MinGreenFraction {
		feasible = false
		if sol != nil {
			sol.addViolation("green fraction %.3f below required %.3f", greenFraction, spec.MinGreenFraction)
		}
	}
	if sol != nil {
		sol.Breakdown = aggregate
		sol.TotalMonthlyUSD = aggregate.Total()
		sol.GreenFraction = greenFraction
	}
	return CostSummary{
		MonthlyUSD:    aggregate.Total(),
		GreenFraction: greenFraction,
		Feasible:      feasible,
	}, nil
}

// prepare resolves the candidate list into per-call site state and sizes the
// scratch buffers (growing them only when the candidate count exceeds every
// previous call's).
func (e *Evaluator) prepare(candidates []Candidate) error {
	n := len(candidates)
	if n == 0 {
		return ErrNoSites
	}
	e.n = n
	E := e.epochs

	e.sites = growSlice(e.sites, n)
	e.rows = growSlice(e.rows, n)
	e.capacities = growSlice(e.capacities, n)
	e.brownRank = growSlice(e.brownRank, n)
	e.availIdx = growSlice(e.availIdx, n)
	e.availVal = growSlice(e.availVal, n)
	e.refSolar = growSlice(e.refSolar, n)
	e.refWind = growSlice(e.refWind, n)
	e.solarKW = growSlice(e.solarKW, n)
	e.windKW = growSlice(e.windKW, n)
	e.outs = growSlice(e.outs, n)
	e.rowDigest = growSlice(e.rowDigest, n)
	e.compute.Reshape(n, E)
	e.migration.Reshape(n, E)
	e.demand.Reshape(n, E)

	for i, c := range candidates {
		row, err := e.cat.Index(c.SiteID)
		if err != nil {
			return fmt.Errorf("core: candidate %d: %w", i, err)
		}
		e.sites[i] = e.all[row]
		e.rows[i] = row
	}

	// Resolve capacities: unspecified ones get an equal share of what is
	// left, floored at the survivable share.
	unspecified := 0
	specified := 0.0
	for i, c := range candidates {
		if c.CapacityKW > 0 {
			e.capacities[i] = c.CapacityKW
			specified += c.CapacityKW
		} else {
			e.capacities[i] = 0
			unspecified++
		}
	}
	if unspecified > 0 {
		remaining := e.spec.TotalCapacityKW - specified
		share := remaining / float64(unspecified)
		minShare := e.spec.TotalCapacityKW / float64(n)
		if share < minShare {
			share = minShare
		}
		for i := 0; i < n; i++ {
			if e.capacities[i] == 0 {
				e.capacities[i] = share
			}
		}
	}
	return nil
}

// referencePlants sizes the per-site reference plants that drive the load
// schedule: the plant that would nominally cover the green-fraction share of
// the site running flat out at its capacity.  Each reference plant depends
// only on the site's own static profile and capacity, which is what makes
// the schedule merge's inputs site-local.
func (e *Evaluator) referencePlants() {
	target := e.spec.MinGreenFraction
	for i := 0; i < e.n; i++ {
		e.refSolar[i], e.refWind[i] = 0, 0
		if target <= 0 {
			continue
		}
		refDemandKWh := e.capacities[i] * e.pueKWh[e.rows[i]]
		e.refSolar[i], e.refWind[i] = e.basePlant(i, target*refDemandKWh)
	}
}

// scheduleLoad assigns the required total compute power to sites in every
// epoch, following the renewables: sites whose reference plants produce more
// green energy in an epoch receive load first (up to the IT power that green
// production can feed through the site's PUE); any remainder goes to the
// sites with the cheapest brown energy.  Assignments never exceed a site's
// capacity.
func (e *Evaluator) scheduleLoad() {
	n, E := e.n, e.epochs
	compute := e.compute.Data()
	series.Zero(compute)
	total := e.spec.TotalCapacityKW

	// Brown cost rank: cheaper grid energy × PUE first (static per site, so
	// the key is precomputed per catalog; only the tiny index sort runs here).
	rank := e.brownRank[:n]
	for i := range rank {
		rank[i] = i
	}
	for i := 1; i < n; i++ {
		ri := rank[i]
		key := e.brownKey[e.rows[ri]]
		j := i - 1
		for j >= 0 && e.brownKey[e.rows[rank[j]]] > key {
			rank[j+1] = rank[j]
			j--
		}
		rank[j+1] = ri
	}

	anyGreen := false
	for i := 0; i < n; i++ {
		if e.refSolar[i] > 0 || e.refWind[i] > 0 {
			anyGreen = true
			break
		}
	}
	// Green availability of every site's reference plant, one row-major
	// kernel pass per site (α·refSolar + β·refWind); the epoch loop below
	// then only gathers one value per site instead of re-deriving it from
	// two profile rows.  The matrix is sized lazily: a brown-only spec
	// (no reference plants) never pays its n×epochs footprint.
	var avail []float64
	if anyGreen {
		e.avail.Reshape(n, E)
		for i := 0; i < n; i++ {
			series.WeightedSum(e.avail.Row(i), e.refSolar[i], e.sites[i].Alpha, e.refWind[i], e.sites[i].Beta)
		}
		avail = e.avail.Data()
	}

	idx, val := e.availIdx[:n], e.availVal[:n]
	for t := 0; t < E; t++ {
		remaining := total

		if anyGreen {
			// Sort sites by green availability this epoch, descending, with
			// a stable insertion sort on the preallocated index buffer (n is
			// the candidate count — single digits to low tens — so this beats
			// any allocation-free generic sort).
			for i := 0; i < n; i++ {
				idx[i] = i
				val[i] = avail[i*E+t]
			}
			for i := 1; i < n; i++ {
				vi, ii := val[i], idx[i]
				j := i - 1
				for j >= 0 && val[j] < vi {
					val[j+1], idx[j+1] = val[j], idx[j]
					j--
				}
				val[j+1], idx[j+1] = vi, ii
			}

			// First pass: load goes where green power is, up to the power the
			// reference plant can actually feed (divided by PUE to convert
			// facility power back to IT power) and up to the site's capacity.
			for k := 0; k < n; k++ {
				if remaining <= 0 {
					break
				}
				i := idx[k]
				greenSupportedIT := val[k] / e.sites[i].PUE[t]
				take := min(remaining, min(e.capacities[i], greenSupportedIT))
				if take > 0 {
					compute[i*E+t] = take
					remaining -= take
				}
			}
		}
		// Second pass: leftover load goes to the cheapest brown sites.
		for _, i := range rank {
			if remaining <= 0 {
				break
			}
			room := e.capacities[i] - compute[i*E+t]
			if room <= 0 {
				continue
			}
			take := min(remaining, room)
			compute[i*E+t] += take
			remaining -= take
		}
		// Any unplaceable remainder is left unassigned; the capacity
		// violation is recorded by run through the capacity check.
	}
}

// siteOutputsInto produces site i's per-site stage outputs, reusing the
// memoized result when the site is clean: its capacity is identical and its
// schedule-row digest matches the cache entry's (the O(1) stand-in for the
// old full-row compare; run computed the digests right after the merge).
func (e *Evaluator) siteOutputsInto(i int, useCache bool, out *siteOutputs) error {
	if !useCache {
		return e.siteStage(i, out)
	}
	id := e.sites[i].ID
	cap := e.capacities[i]
	ent := e.cache[id]
	if ent != nil && ent.capacityKW == cap && ent.digest == e.rowDigest[i] {
		*out = ent.out
		return nil
	}
	if err := e.siteStage(i, out); err != nil {
		return err
	}
	if ent == nil {
		ent = &siteEntry{}
		e.cache[id] = ent
	}
	ent.capacityKW = cap
	ent.digest = e.rowDigest[i]
	ent.out = *out
	return nil
}

// siteStage runs the full per-site pipeline for site i: migration overhead
// and facility demand from the schedule row, exact plant sizing against the
// site's own demand (siteScale, given the demand energy summed here once),
// battery sizing, and the final energy/cost accounting.  Everything it
// reads is either static per site or derived from (capacity, schedule
// row), which is the cache's validation key.
func (e *Evaluator) siteStage(i int, out *siteOutputs) error {
	spec := &e.spec
	e.migrationRow(i)
	e.demandRow(i)

	demandKWh := series.SumScaled(e.demand.Row(i), e.hours)

	baseSolar, baseWind := 0.0, 0.0
	if spec.MinGreenFraction > 0 && demandKWh > 0 {
		baseSolar, baseWind = e.basePlant(i, spec.MinGreenFraction*demandKWh)
	}
	scale := 0.0
	if baseSolar > 0 || baseWind > 0 {
		size := (*Evaluator).siteScale
		if e.sizeRef != nil {
			size = e.sizeRef
		}
		var err error
		scale, err = size(e, i, baseSolar, baseWind, demandKWh)
		if err != nil {
			return err
		}
	}
	out.SolarKW = baseSolar * scale
	out.WindKW = baseWind * scale
	out.BatteryKWh = batteryCapacityFor(out.SolarKW, out.WindKW, e.sites[i], spec)
	return e.accountSite(i, out)
}

// migrationRow derives site i's per-epoch migration overhead power from its
// compute schedule row: when the site's assignment drops between consecutive
// epochs, the migrated load consumes power at the donor for
// MigrationFraction of the next epoch (the paper's migratePow, the
// series.ScaledDrop kernel).
func (e *Evaluator) migrationRow(i int) {
	series.ScaledDrop(e.migration.Row(i), e.spec.MigrationFraction, e.compute.Row(i))
}

// demandRow converts site i's IT power plus migration overhead into facility
// power using its per-epoch PUE (the paper's powDemand, the series.AddMul
// kernel).  It assumes migrationRow has run for the current schedule.
func (e *Evaluator) demandRow(i int) {
	series.AddMul(e.demand.Row(i), e.compute.Row(i), e.migration.Row(i), e.sites[i].PUE)
}

// refreshDemandRows recomputes every site's migration and demand rows from
// the current schedule.  The top-up stage needs them for all sites, including
// ones whose per-site stage was served from cache.
func (e *Evaluator) refreshDemandRows() {
	for i := 0; i < e.n; i++ {
		e.migrationRow(i)
		e.demandRow(i)
	}
}

// basePlant converts allocKWh of yearly green energy into plant capacity at
// site i using the site's cached technology split.
func (e *Evaluator) basePlant(i int, allocKWh float64) (solarKW, windKW float64) {
	if allocKWh <= 0 {
		return 0, 0
	}
	site := e.sites[i]
	row := e.rows[i]
	if sw := e.solarTW[row]; sw > 0 && site.SolarCapacityFactor > 0.02 {
		solarKW = allocKWh * sw / (site.SolarCapacityFactor * float64(location.HoursPerYear))
	}
	if ww := e.windTW[row]; ww > 0 && site.WindCapacityFactor > 0.02 {
		windKW = allocKWh * ww / (site.WindCapacityFactor * float64(location.HoursPerYear))
	}
	return solarKW, windKW
}

// siteScale returns the smallest factor by which site i's base plant must
// be scaled so the site reaches the spec's green fraction on its own demand
// (demandKWh, the energy of its demand row) under the real storage
// dynamics, or plantScaleCeiling when no factor up to the ceiling does; the
// network top-up (and, failing that, the green-fraction violation) then
// takes over.  energy.ScaleBracket inverts the greedy balance: without
// storage and with net metering it returns the factor itself, and with
// batteries it brackets the factor between the net-metering and no-storage
// ones, which siteBisect narrows.  One real energy.Green probe confirms the
// result (confirmScale).  The result depends only on the site, its demand
// row, the base plant and the spec.
func (e *Evaluator) siteScale(i int, baseSolar, baseWind, demandKWh float64) (float64, error) {
	lo, hi, err := energy.ScaleBracket(e.balanceOf(i), energy.Plant{
		SolarKW:    baseSolar,
		WindKW:     baseWind,
		BatteryKWh: batteryCapacityFor(baseSolar, baseWind, e.sites[i], &e.spec),
	}, demandKWh, e.spec.MinGreenFraction)
	if err != nil {
		return 0, fmt.Errorf("core: sizing bracket for %s: %w", e.sites[i].Name, err)
	}
	if lo >= plantScaleCeiling {
		return plantScaleCeiling, nil
	}
	if lo < hi {
		if hi >= plantScaleCeiling {
			// No storage cannot reach the target below the ceiling, so
			// only a probe tells whether the battery can.
			hi = plantScaleCeiling
			if ok, err := e.siteReaches(i, baseSolar, baseWind, demandKWh, hi); err != nil || !ok {
				return hi, err
			}
		}
		if hi, err = e.siteBisect(i, baseSolar, baseWind, demandKWh, lo, hi); err != nil {
			return 0, err
		}
	}
	return e.confirmScale(i, baseSolar, baseWind, demandKWh, hi)
}

// sizingSlack is how far below the green target a sizing probe's fraction
// may fall and still count as reaching it.  A probe's green energy carries
// rounding error, and at a 100% target every factor above the minimum
// serves the whole demand in real arithmetic, so the exact test
// green ≥ demand holds there only when the rounding happens to fall that
// way: without the slack a 100% sizing lands at a random factor above the
// minimum.  1e-12 is far above that rounding and far below the 1e-3 the
// feasibility check tolerates.
const sizingSlack = 1e-12

// siteReaches reports whether site i reaches the green target, to within
// sizingSlack, with its base plant scaled by k.
func (e *Evaluator) siteReaches(i int, baseSolar, baseWind, demandKWh, k float64) (bool, error) {
	f, err := e.siteFraction(i, baseSolar, baseWind, demandKWh, k)
	return f >= e.spec.MinGreenFraction-sizingSlack, err
}

// confirmScale probes site i at factor k and, while the probe misses the
// green target, steps k up by a relative 2⁻⁴⁰, then four times that, and so
// on: a closed-form factor can miss by rounding, which one or two tiny
// steps cover.  It returns the first factor that reaches the target, or
// plantScaleCeiling when none up to the ceiling does.  It never reports a
// missed probe as unreachable below the ceiling.
func (e *Evaluator) confirmScale(i int, baseSolar, baseWind, demandKWh, k float64) (float64, error) {
	k = min(k, plantScaleCeiling)
	for step := 0x1p-40; ; step *= 4 {
		ok, err := e.siteReaches(i, baseSolar, baseWind, demandKWh, k)
		if err != nil || ok || k >= plantScaleCeiling {
			return k, err
		}
		k = min(plantScaleCeiling, max(k*(1+step), step))
	}
}

// siteBisect narrows [lo, hi] — where hi is known to reach the green target
// and lo is not — to a relative width of 1e-4 and returns the hi side of
// the final bracket.  The feasibility check tolerates 1e-3 on the green
// fraction, so chasing more precision only burns probes.
func (e *Evaluator) siteBisect(i int, baseSolar, baseWind, demandKWh, lo, hi float64) (float64, error) {
	for iter := 0; iter < 40 && hi-lo > 1e-4*hi; iter++ {
		mid := (lo + hi) / 2
		ok, err := e.siteReaches(i, baseSolar, baseWind, demandKWh, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// siteFraction returns site i's green fraction when its base plant is scaled
// by the given factor, under the spec's real storage dynamics.  demandKWh is
// the site's positive demand energy, which siteStage sums once per stage.
func (e *Evaluator) siteFraction(i int, baseSolar, baseWind, demandKWh, scale float64) (float64, error) {
	solar := baseSolar * scale
	wind := baseWind * scale
	green, err := energy.Green(e.balanceOf(i), energy.Plant{
		SolarKW:    solar,
		WindKW:     wind,
		BatteryKWh: batteryCapacityFor(solar, wind, e.sites[i], &e.spec),
	})
	if err != nil {
		return 0, fmt.Errorf("core: sizing balance for %s: %w", e.sites[i].Name, err)
	}
	return min(1, green/demandKWh), nil
}

// balanceOf points the evaluator's balance input at site i's production
// profiles and current demand row.
func (e *Evaluator) balanceOf(i int) *energy.Site {
	e.bal.Alpha, e.bal.Beta, e.bal.DemandKW = e.sites[i].Alpha, e.sites[i].Beta, e.demand.Row(i)
	return &e.bal
}

// accountSite runs the final energy balance and cost model for site i with
// the provisioning already stored in out, filling the energy totals and the
// monthly cost breakdown.
func (e *Evaluator) accountSite(i int, out *siteOutputs) error {
	spec := &e.spec
	site := e.sites[i]
	tot, err := energy.Totals(e.balanceOf(i), energy.Plant{
		SolarKW:    out.SolarKW,
		WindKW:     out.WindKW,
		BatteryKWh: out.BatteryKWh,
	})
	if err != nil {
		return fmt.Errorf("core: balance for %s: %w", site.Name, err)
	}
	out.DemandKWh = tot.DemandKWh
	out.GreenKWh = tot.GreenUsedKWh + tot.BattDischargedKWh + tot.NetDischargedKWh
	out.MaxBrownKW = tot.MaxBrownKW
	out.Breakdown = spec.Cost.MonthlySite(site, cost.Provision{
		CapacityKW: e.capacities[i],
		MaxPUE:     site.MaxPUE,
		SolarKW:    out.SolarKW,
		WindKW:     out.WindKW,
		BatteryKWh: out.BatteryKWh,
	}, cost.EnergyUse{
		BrownKWh:         tot.BrownKWh,
		NetChargedKWh:    tot.NetChargedKWh,
		NetDischargedKWh: tot.NetDischargedKWh,
	})
	return nil
}

// topUpScale finds the common factor λ ≥ 1 by which every site's plants must
// be scaled so the network-wide green fraction reaches the target, mirroring
// the per-site search: double up to the ceiling, then bisect down.  It
// assumes refreshDemandRows has run.
func (e *Evaluator) topUpScale(outs []siteOutputs) (float64, error) {
	target := e.spec.MinGreenFraction
	f, err := e.networkFraction(outs, 1)
	if err != nil {
		return 0, err
	}
	if f >= target {
		return 1, nil
	}
	hi := 1.0
	reached := false
	for hi < plantScaleCeiling {
		hi *= 2
		if hi > plantScaleCeiling {
			hi = plantScaleCeiling
		}
		if f, err = e.networkFraction(outs, hi); err != nil {
			return 0, err
		}
		if f >= target {
			reached = true
			break
		}
	}
	if !reached {
		// Unreachable with this siting even at the ceiling; run records the
		// green-fraction violation.
		return hi, nil
	}
	lo := hi / 2
	if lo < 1 {
		lo = 1
	}
	for iter := 0; iter < 40 && hi-lo > 1e-4*hi; iter++ {
		mid := (lo + hi) / 2
		if f, err = e.networkFraction(outs, mid); err != nil {
			return 0, err
		}
		if f >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// networkFraction returns the network green fraction achieved when every
// site's plants are scaled by λ, under the spec's real storage dynamics.
// Each site's demand energy is its per-site stage's DemandKWh: the demand
// row does not depend on the plant.
func (e *Evaluator) networkFraction(outs []siteOutputs, lambda float64) (float64, error) {
	greenTotal, demandTotal := 0.0, 0.0
	for i := 0; i < e.n; i++ {
		solar := outs[i].SolarKW * lambda
		wind := outs[i].WindKW * lambda
		green, err := energy.Green(e.balanceOf(i), energy.Plant{
			SolarKW:    solar,
			WindKW:     wind,
			BatteryKWh: batteryCapacityFor(solar, wind, e.sites[i], &e.spec),
		})
		if err != nil {
			return 0, fmt.Errorf("core: top-up balance for %s: %w", e.sites[i].Name, err)
		}
		greenTotal += green
		demandTotal += outs[i].DemandKWh
	}
	if demandTotal <= 0 {
		return 1, nil
	}
	return greenTotal / demandTotal, nil
}

// reaccount scales site i's plants by λ, resizes its battery and redoes the
// final accounting; used after the network top-up changed the plant sizes.
func (e *Evaluator) reaccount(i int, lambda float64, out *siteOutputs) error {
	out.SolarKW *= lambda
	out.WindKW *= lambda
	out.BatteryKWh = batteryCapacityFor(out.SolarKW, out.WindKW, e.sites[i], &e.spec)
	return e.accountSite(i, out)
}

// materializeSite appends site i's provisioning, cost and green fraction,
// all from the per-site outputs, to sol.
func (e *Evaluator) materializeSite(i int, out *siteOutputs, sol *Solution) {
	site := e.sites[i]
	greenFraction := 1.0
	if out.DemandKWh > 0 {
		greenFraction = math.Min(1, out.GreenKWh/out.DemandKWh)
	}
	sol.Sites = append(sol.Sites, SiteSolution{
		Site: site,
		Provision: cost.Provision{
			CapacityKW: e.capacities[i],
			MaxPUE:     site.MaxPUE,
			SolarKW:    out.SolarKW,
			WindKW:     out.WindKW,
			BatteryKWh: out.BatteryKWh,
		},
		Breakdown:     out.Breakdown,
		GreenFraction: greenFraction,
	})
	sol.ProvisionedCapacityKW += e.capacities[i]
	sol.SolarKW += out.SolarKW
	sol.WindKW += out.WindKW
	sol.BatteryKWh += out.BatteryKWh
}

// growSlice returns s resized to n, reusing the backing array when it is
// large enough.  Contents are unspecified; callers overwrite every element.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
