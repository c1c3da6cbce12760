// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections III–V): the capacity-factor and PUE characterizations
// (Figs. 3–5), the per-location cost CDF (Fig. 6, Table II), the siting case
// study and its cost breakdown (Fig. 7, Table III), the cost and capacity
// sweeps versus the desired green fraction under the three storage regimes
// (Figs. 8–12), the migration-overhead sensitivity (Fig. 13), the
// follow-the-renewables emulation trace (Fig. 15) and the scheduler timing
// results of Section V-C.
//
// Each experiment returns a Table whose rows mirror the series the paper
// plots, so the harness (cmd/experiments and the benchmarks in bench_test.go)
// can print or compare them directly.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"greencloud/internal/core"
	"greencloud/internal/emul"
	"greencloud/internal/energy"
	"greencloud/internal/location"
	"greencloud/internal/lp"
	"greencloud/internal/pue"
	"greencloud/internal/sched"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// parallelFor runs fn(i) for every i in [0, n) on a GOMAXPROCS-sized worker
// pool.  Results stay deterministic because each index writes to its own
// slot in whatever indexed structure fn fills; only the execution order is
// concurrent.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// evaluatorPool shares reusable single-site evaluators across the worker
// pool: pricing a location is allocation-free once its worker's evaluator is
// warm, instead of rebuilding the per-catalog evaluator caches per probe.
// The datacenter capacity is fixed at construction, matching the spec the
// evaluators were built with.
type evaluatorPool struct {
	pool       sync.Pool
	cat        *location.Catalog
	spec       core.Spec
	capacityKW float64
}

func newEvaluatorPool(cat *location.Catalog, capacityKW float64, spec core.Spec) (*evaluatorPool, error) {
	// Build the first evaluator eagerly so configuration errors surface
	// here.  The pool deliberately has no New hook — a constructor failure
	// inside sync.Pool could only panic across goroutines — so price()
	// constructs on a miss and returns the error like any other call path.
	// Per-site memoization is off: these probes price each location exactly
	// once, so cache entries could never be hit.
	first, err := core.NewSingleSiteEvaluator(cat, capacityKW, spec)
	if err != nil {
		return nil, err
	}
	first.DisableCache()
	p := &evaluatorPool{cat: cat, spec: spec, capacityKW: capacityKW}
	p.pool.Put(first)
	return p, nil
}

// price returns the monthly cost of one datacenter of the pool's capacity at
// the site.
func (p *evaluatorPool) price(siteID int) (float64, error) {
	ev, _ := p.pool.Get().(*core.Evaluator)
	if ev == nil {
		fresh, err := core.NewSingleSiteEvaluator(p.cat, p.capacityKW, p.spec)
		if err != nil {
			return 0, err
		}
		fresh.DisableCache()
		ev = fresh
	}
	defer p.pool.Put(ev)
	res, err := ev.EvaluateCost([]core.Candidate{{SiteID: siteID, CapacityKW: p.capacityKW}})
	if err != nil {
		return 0, err
	}
	return res.MonthlyUSD, nil
}

// Table is a formatted experiment result.
type Table struct {
	// ID is the paper artifact this table regenerates, e.g. "fig8".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the formatted data rows.
	Rows [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	out := fmt.Sprintf("== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Columns)
	for _, row := range t.Rows {
		out += line(row)
	}
	return out
}

// Budget scales how much work the experiments do.
type Budget int

// Budgets.
const (
	// Quick keeps every experiment under roughly a minute; used by the
	// benchmarks and tests.
	Quick Budget = iota + 1
	// Full uses the paper-scale catalog and search budgets.
	Full
)

// Config describes the shared experimental setup.
type Config struct {
	// Budget selects Quick or Full scale.
	Budget Budget
	// Seed fixes the synthetic catalog.
	Seed int64
	// Ctx, when non-nil, cancels long experiment runs cooperatively: All
	// stops between experiments, and the sweeps stop between points and
	// inside each point's annealing search.  Results computed before the
	// cancellation are returned; a Ctx that never fires leaves every result
	// bit-identical to a run without one.
	Ctx context.Context
	// Verbose adds solver-internals columns to the LP-backed tables
	// (sched-timing, heuristic-vs-exact): simplex pivots and warm-start
	// cold fallbacks.
	Verbose bool
}

// Suite owns the catalog and caches intermediate results shared between
// experiments (e.g. the green-fraction sweeps feed both the cost and the
// capacity figures).
type Suite struct {
	cfg     Config
	catalog *location.Catalog
	// mu guards the caches below; the sweep experiments fan their points
	// across a worker pool and may be invoked concurrently themselves.
	mu sync.Mutex
	// filtered is the pre-filtered candidate list shared by the sweeps.
	filtered []int
	sweeps   map[energy.StorageMode]map[core.SourceMix][]sweepPoint
}

type sweepPoint struct {
	greenPct   float64
	monthlyUSD float64
	capacityKW float64
	solution   *core.Solution
}

// catalogSize returns the number of candidate locations per budget.
func (c Config) catalogSize() int {
	if c.Budget == Full {
		return location.DefaultCount
	}
	return 160
}

func (c Config) solveOptions() core.SolveOptions {
	if c.Budget == Full {
		return core.SolveOptions{FilterKeep: 60, Chains: 4, MaxIterations: 200, Seed: c.Seed}
	}
	return core.SolveOptions{FilterKeep: 10, Chains: 2, MaxIterations: 25, Seed: c.Seed}
}

func (c Config) greenLevels() []float64 {
	if c.Budget == Full {
		return []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	return []float64{0, 0.5, 1.0}
}

// NewSuite builds the shared catalog.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Budget == 0 {
		cfg.Budget = Quick
	}
	cat, err := location.Generate(location.Options{
		Count:              cfg.catalogSize(),
		Seed:               cfg.Seed,
		RepresentativeDays: 2,
	})
	if err != nil {
		return nil, err
	}
	return &Suite{
		cfg:     cfg,
		catalog: cat,
		sweeps:  make(map[energy.StorageMode]map[core.SourceMix][]sweepPoint),
	}, nil
}

// baseSpec is the paper's 50 MW base case.
func (s *Suite) baseSpec() core.Spec {
	spec := core.DefaultSpec()
	return spec
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// Fig3 returns the CDF of solar and wind capacity factors (percent) over the
// catalog, sampled at every 10th percentile.
func (s *Suite) Fig3() (*Table, error) {
	solar, solarPct := cdf(s.catalog.SolarCapacityFactors())
	wind, _ := cdf(s.catalog.WindCapacityFactors())
	t := &Table{
		ID:      "fig3",
		Title:   "Capacity factors for the candidate locations (CDF)",
		Columns: []string{"locations(%)", "solarCF(%)", "windCF(%)"},
	}
	for p := 10; p <= 100; p += 10 {
		idx := searchPercentile(solarPct, float64(p))
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p), f1(100 * solar[idx]), f1(100 * wind[idx]),
		})
	}
	return t, nil
}

// cdf returns the values sorted ascending together with cumulative
// percentages (0..100], the capacity-factor and cost CDFs of Figs. 3 and 6.
func cdf(values []float64) (sorted []float64, percentiles []float64) {
	sorted = make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	percentiles = make([]float64, len(values))
	n := float64(len(values))
	for i := range sorted {
		percentiles[i] = 100 * float64(i+1) / n
	}
	return sorted, percentiles
}

func searchPercentile(pct []float64, p float64) int {
	idx := sort.SearchFloat64s(pct, p)
	if idx >= len(pct) {
		idx = len(pct) - 1
	}
	return idx
}

// Fig4 returns the PUE-vs-temperature curve.
func (s *Suite) Fig4() (*Table, error) {
	temps, pues := pue.Curve(15, 45, 5)
	t := &Table{ID: "fig4", Title: "PUE as a function of external temperature", Columns: []string{"tempC", "PUE"}}
	for i := range temps {
		t.Rows = append(t.Rows, []string{f1(temps[i]), f2(pues[i])})
	}
	return t, nil
}

// Fig5 relates capacity factors and PUE: average PUE of the ten best wind
// and the ten best solar locations, plus the catalog average.
func (s *Suite) Fig5() (*Table, error) {
	avg := func(sites []*location.Site) (cf, p float64) {
		for _, site := range sites {
			p += site.AvgPUE
		}
		return 0, p / float64(len(sites))
	}
	topWind := s.catalog.TopByWindCF(10)
	topSolar := s.catalog.TopBySolarCF(10)
	_, windPUE := avg(topWind)
	_, solarPUE := avg(topSolar)
	all := 0.0
	for _, p := range s.catalog.AvgPUEs() {
		all += p
	}
	all /= float64(s.catalog.Len())

	t := &Table{
		ID:      "fig5",
		Title:   "PUE vs. capacity factor (best wind sites are cold, best solar sites are warm)",
		Columns: []string{"group", "avgCF(%)", "avgPUE"},
	}
	windCF, solarCF := 0.0, 0.0
	for _, site := range topWind {
		windCF += site.WindCapacityFactor
	}
	for _, site := range topSolar {
		solarCF += site.SolarCapacityFactor
	}
	t.Rows = append(t.Rows,
		[]string{"top-10 wind sites", f1(100 * windCF / 10), f2(windPUE)},
		[]string{"top-10 solar sites", f1(100 * solarCF / 10), f2(solarPUE)},
		[]string{"all locations", "-", f2(all)},
	)
	return t, nil
}

// Table2 lists good brown, solar and wind sites with their attributes, like
// Table II of the paper.
func (s *Suite) Table2() (*Table, error) {
	spec := s.baseSpec()
	brownSpec := spec
	brownSpec.MinGreenFraction = 0

	// The cheapest brown site: evaluate a 25 MW brown datacenter everywhere
	// (on the Quick budget, sample every 4th site).
	step := 4
	if s.cfg.Budget == Full {
		step = 1
	}
	var ids []int
	for id := 0; id < s.catalog.Len(); id += step {
		ids = append(ids, id)
	}
	pool, err := newEvaluatorPool(s.catalog, 25_000, brownSpec)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(ids))
	errs := make([]error, len(ids))
	parallelFor(len(ids), func(i int) {
		costs[i], errs[i] = pool.price(ids[i])
	})
	bestBrown, bestCost := -1, 0.0
	for i, id := range ids {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if bestBrown == -1 || costs[i] < bestCost {
			bestBrown, bestCost = id, costs[i]
		}
	}

	t := &Table{
		ID:      "table2",
		Title:   "Good locations for brown, solar and wind datacenters",
		Columns: []string{"type", "location", "cost($M/mo)", "solarCF(%)", "windCF(%)", "maxPUE", "elec($/MWh)", "land($/m2)", "distPow(km)", "distNet(km)"},
	}
	addRow := func(kind string, site *location.Site, monthly float64) {
		t.Rows = append(t.Rows, []string{
			kind, site.Name, f1(monthly / 1e6),
			f1(100 * site.SolarCapacityFactor), f1(100 * site.WindCapacityFactor),
			f2(site.MaxPUE), f1(site.GridPriceUSDPerKWh * 1000), f1(site.LandPriceUSDPerM2),
			f1(site.DistPowerKm), f1(site.DistNetworkKm),
		})
	}
	brownSite, err := s.catalog.Site(bestBrown)
	if err != nil {
		return nil, err
	}
	addRow("brown", brownSite, bestCost)

	solarSpec := spec
	solarSpec.Sources = core.SolarOnly
	for _, site := range s.catalog.TopBySolarCF(2) {
		sol, err := core.EvaluateSingleSite(s.catalog, site.ID, 25_000, solarSpec)
		if err != nil {
			return nil, err
		}
		addRow("solar", site, sol.TotalMonthlyUSD)
	}
	windSpec := spec
	windSpec.Sources = core.WindOnly
	for _, site := range s.catalog.TopByWindCF(2) {
		sol, err := core.EvaluateSingleSite(s.catalog, site.ID, 25_000, windSpec)
		if err != nil {
			return nil, err
		}
		addRow("wind", site, sol.TotalMonthlyUSD)
	}
	return t, nil
}

// Fig6 is the CDF of the per-month cost of one 25 MW datacenter with 50 %
// green energy (net metering) at every location, for brown, solar-only and
// wind-only builds.
func (s *Suite) Fig6() (*Table, error) {
	step := 4
	if s.cfg.Budget == Full {
		step = 1
	}
	var ids []int
	for id := 0; id < s.catalog.Len(); id += step {
		ids = append(ids, id)
	}
	brownSpec := s.baseSpec()
	brownSpec.MinGreenFraction = 0
	solarSpec := s.baseSpec()
	solarSpec.Sources = core.SolarOnly
	windSpec := s.baseSpec()
	windSpec.Sources = core.WindOnly
	brownPool, err := newEvaluatorPool(s.catalog, 25_000, brownSpec)
	if err != nil {
		return nil, err
	}
	solarPool, err := newEvaluatorPool(s.catalog, 25_000, solarSpec)
	if err != nil {
		return nil, err
	}
	windPool, err := newEvaluatorPool(s.catalog, 25_000, windSpec)
	if err != nil {
		return nil, err
	}
	brown := make([]float64, len(ids))
	solar := make([]float64, len(ids))
	wind := make([]float64, len(ids))
	errs := make([]error, len(ids))
	parallelFor(len(ids), func(i int) {
		id := ids[i]
		if brown[i], errs[i] = brownPool.price(id); errs[i] != nil {
			return
		}
		if solar[i], errs[i] = solarPool.price(id); errs[i] != nil {
			return
		}
		wind[i], errs[i] = windPool.price(id)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	bSorted, pct := cdf(brown)
	sSorted, _ := cdf(solar)
	wSorted, _ := cdf(wind)
	t := &Table{
		ID:      "fig6",
		Title:   "CDF of the monthly cost of a 25 MW datacenter with 50% green energy ($M/month)",
		Columns: []string{"locations(%)", "brown", "solar", "wind"},
	}
	for p := 10; p <= 100; p += 10 {
		idx := searchPercentile(pct, float64(p))
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p), f1(bSorted[idx] / 1e6), f1(sSorted[idx] / 1e6), f1(wSorted[idx] / 1e6),
		})
	}
	return t, nil
}

// candidateList filters the catalog once (for the paper's 50 % net-metering
// base case) and reuses the surviving locations for every sweep, exactly as
// the paper's heuristic does.
func (s *Suite) candidateList() ([]int, error) {
	s.mu.Lock()
	if s.filtered != nil {
		defer s.mu.Unlock()
		return s.filtered, nil
	}
	s.mu.Unlock()
	keep := s.cfg.solveOptions().FilterKeep
	filtered, err := core.FilterSites(s.catalog, s.baseSpec(), keep)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.filtered == nil {
		s.filtered = filtered
	}
	return s.filtered, nil
}

// solveSweep runs (and caches) the cost-vs-green-fraction sweep for one
// storage mode and source mix.
func (s *Suite) solveSweep(storage energy.StorageMode, sources core.SourceMix) ([]sweepPoint, error) {
	series, err := s.solveSweeps(storage, []core.SourceMix{sources})
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// solveSweeps computes (and caches) the sweep for several source mixes at
// once.  The mixes fan out across the worker pool; within one mix the
// green-fraction points run in ascending order so each point's annealing can
// warm-start from the previous point's siting (adjacent points have similar
// optimal sitings, so the warm start cuts sweep wall-clock).  Each point
// writes only its own indexed slot, so the resulting series are
// deterministic regardless of which worker finishes first.
func (s *Suite) solveSweeps(storage energy.StorageMode, mixes []core.SourceMix) ([][]sweepPoint, error) {
	out := make([][]sweepPoint, len(mixes))
	s.mu.Lock()
	missing := 0
	if byMix, ok := s.sweeps[storage]; ok {
		for i, mix := range mixes {
			out[i] = byMix[mix]
		}
	}
	for _, pts := range out {
		if pts == nil {
			missing++
		}
	}
	s.mu.Unlock()
	if missing == 0 {
		return out, nil
	}

	filtered, err := s.candidateList()
	if err != nil {
		return nil, err
	}
	baseOpts := s.cfg.solveOptions()
	baseOpts.Candidates = filtered
	// The worker pool is the parallelism; chains inside each fanned-out
	// Solve would oversubscribe the cap, and sequential chains return a
	// bit-identical solution anyway.
	baseOpts.Sequential = true
	levels := s.cfg.greenLevels()

	var todo []int
	for i := range mixes {
		if out[i] != nil {
			continue
		}
		out[i] = make([]sweepPoint, len(levels))
		todo = append(todo, i)
	}
	ctx := s.cfg.Ctx
	parallelFor(len(todo), func(k int) {
		mixIdx := todo[k]
		var warm []core.Candidate
		for l, green := range levels {
			if ctx != nil && ctx.Err() != nil {
				// Cancelled: mark the remaining points missing; the error is
				// reported once, after the pool drains.
				out[mixIdx][l] = sweepPoint{greenPct: green * 100, monthlyUSD: -1, capacityKW: -1}
				continue
			}
			spec := s.baseSpec()
			spec.MinGreenFraction = green
			spec.Storage = storage
			spec.Sources = mixes[mixIdx]
			opts := baseOpts
			opts.Ctx = ctx
			opts.InitialCandidates = warm
			sol, err := core.Solve(s.catalog, spec, opts)
			if err != nil {
				// Some extreme points (100 % green, no storage, single
				// source) can be genuinely unreachable on the Quick catalog;
				// record the point as missing rather than aborting the whole
				// figure.
				out[mixIdx][l] = sweepPoint{greenPct: green * 100, monthlyUSD: -1, capacityKW: -1}
				continue
			}
			out[mixIdx][l] = sweepPoint{
				greenPct:   green * 100,
				monthlyUSD: sol.TotalMonthlyUSD,
				capacityKW: sol.ProvisionedCapacityKW,
				solution:   sol,
			}
			warm = warm[:0]
			for _, site := range sol.Sites {
				warm = append(warm, core.Candidate{SiteID: site.Site.ID, CapacityKW: site.Provision.CapacityKW})
			}
		}
	})
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Don't cache partial sweeps: a later uncancelled run must be able
			// to recompute the missing points.
			return nil, fmt.Errorf("experiments: sweep cancelled: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sweeps[storage]; !ok {
		s.sweeps[storage] = make(map[core.SourceMix][]sweepPoint)
	}
	for i, mix := range mixes {
		if _, ok := s.sweeps[storage][mix]; !ok {
			s.sweeps[storage][mix] = out[i]
		}
	}
	return out, nil
}

func (s *Suite) sweepTable(id, title, unit string, storage energy.StorageMode,
	value func(sweepPoint) float64) (*Table, error) {

	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"green(%)", "wind " + unit, "solar " + unit, "wind+solar " + unit},
	}
	mixes := []core.SourceMix{core.WindOnly, core.SolarOnly, core.SolarAndWind}
	series, err := s.solveSweeps(storage, mixes)
	if err != nil {
		return nil, err
	}
	for row := range series[0] {
		cells := []string{f1(series[0][row].greenPct)}
		for i := range mixes {
			v := value(series[i][row])
			if v < 0 {
				cells = append(cells, "n/a")
			} else {
				cells = append(cells, f1(v))
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// Fig8 is the monthly cost vs. desired green percentage with net metering.
func (s *Suite) Fig8() (*Table, error) {
	return s.sweepTable("fig8", "Monthly cost vs. green percentage (net metering)", "$M/mo",
		energy.NetMetering, func(p sweepPoint) float64 { return p.monthlyUSD / 1e6 })
}

// Fig9 is the monthly cost vs. desired green percentage with batteries.
func (s *Suite) Fig9() (*Table, error) {
	return s.sweepTable("fig9", "Monthly cost vs. green percentage (batteries)", "$M/mo",
		energy.Batteries, func(p sweepPoint) float64 { return p.monthlyUSD / 1e6 })
}

// Fig10 is the monthly cost vs. desired green percentage without storage.
func (s *Suite) Fig10() (*Table, error) {
	return s.sweepTable("fig10", "Monthly cost vs. green percentage (no storage)", "$M/mo",
		energy.NoStorage, func(p sweepPoint) float64 { return p.monthlyUSD / 1e6 })
}

// Fig11 is the provisioned compute capacity vs. green percentage with net
// metering.
func (s *Suite) Fig11() (*Table, error) {
	return s.sweepTable("fig11", "Provisioned compute capacity vs. green percentage (net metering)", "MW",
		energy.NetMetering, func(p sweepPoint) float64 { return p.capacityKW / 1000 })
}

// Fig12 is the provisioned compute capacity vs. green percentage without
// storage.
func (s *Suite) Fig12() (*Table, error) {
	return s.sweepTable("fig12", "Provisioned compute capacity vs. green percentage (no storage)", "MW",
		energy.NoStorage, func(p sweepPoint) float64 { return p.capacityKW / 1000 })
}

// Fig7 is the cost breakdown of the 50 MW / 50 % green case study.
func (s *Suite) Fig7() (*Table, error) {
	pts, err := s.solveSweep(energy.NetMetering, core.SolarAndWind)
	if err != nil {
		return nil, err
	}
	var sol *core.Solution
	for _, p := range pts {
		if p.greenPct == 50 && p.solution != nil {
			sol = p.solution
		}
	}
	if sol == nil {
		spec := s.baseSpec()
		sol, err = core.Solve(s.catalog, spec, s.cfg.solveOptions())
		if err != nil {
			return nil, err
		}
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Cost breakdown of the 50 MW / 50% green network ($M/month)",
		Columns: []string{"site", "buildDC", "IT", "plants", "land", "connection", "bandwidth", "brown", "battery", "total"},
	}
	for _, site := range sol.Sites {
		b := site.Breakdown
		t.Rows = append(t.Rows, []string{
			site.Site.Name, f2(b.BuildDC / 1e6), f2(b.ITEquipment / 1e6),
			f2((b.BuildSolar + b.BuildWind) / 1e6), f2((b.LandDC + b.LandPlant) / 1e6),
			f2((b.ConnectionPower + b.ConnectionFiber) / 1e6), f2(b.NetworkBandwidth / 1e6),
			f2(b.BrownEnergy / 1e6), f2(b.Battery / 1e6), f2(b.Total() / 1e6),
		})
	}
	b := sol.Breakdown
	t.Rows = append(t.Rows, []string{
		"TOTAL", f2(b.BuildDC / 1e6), f2(b.ITEquipment / 1e6),
		f2((b.BuildSolar + b.BuildWind) / 1e6), f2((b.LandDC + b.LandPlant) / 1e6),
		f2((b.ConnectionPower + b.ConnectionFiber) / 1e6), f2(b.NetworkBandwidth / 1e6),
		f2(b.BrownEnergy / 1e6), f2(b.Battery / 1e6), f2(b.Total() / 1e6),
	})
	return t, nil
}

// Fig13 is the cost of the 100 % green / no-storage network as a function of
// the migration overhead (fraction of an epoch billed at both ends).
func (s *Suite) Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Monthly cost of the 100% green / no-storage network vs. migration overhead",
		Columns: []string{"migration(%)", "wind $M/mo", "solar $M/mo", "wind+solar $M/mo"},
	}
	mixes := []core.SourceMix{core.WindOnly, core.SolarOnly, core.SolarAndWind}
	fractions := []float64{0, 0.5, 1.0}
	if s.cfg.Budget == Full {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}

	filtered, err := s.candidateList()
	if err != nil {
		return nil, err
	}
	opts := s.cfg.solveOptions()
	opts.Candidates = filtered

	// Solve once per mix at the conservative migration setting, then
	// re-evaluate the same siting at cheaper migration settings (the paper
	// varies only the migration energy, not the siting).  The three solves
	// are independent, so they fan out across the worker pool (with
	// sequential chains inside — see solveSweeps).
	opts.Sequential = true
	sitings := make([][]core.Candidate, len(mixes))
	parallelFor(len(mixes), func(i int) {
		spec := s.baseSpec()
		spec.MinGreenFraction = 1
		spec.Storage = energy.NoStorage
		spec.Sources = mixes[i]
		sol, err := core.Solve(s.catalog, spec, opts)
		if err != nil {
			sitings[i] = nil
			return
		}
		var cands []core.Candidate
		for _, site := range sol.Sites {
			cands = append(cands, core.Candidate{SiteID: site.Site.ID, CapacityKW: site.Provision.CapacityKW})
		}
		sitings[i] = cands
	})
	for _, frac := range fractions {
		row := []string{f1(frac * 100)}
		for i, mix := range mixes {
			if sitings[i] == nil {
				row = append(row, "n/a")
				continue
			}
			spec := s.baseSpec()
			spec.MinGreenFraction = 1
			spec.Storage = energy.NoStorage
			spec.Sources = mix
			spec.MigrationFraction = frac
			sol, err := core.Evaluate(s.catalog, sitings[i], spec)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, f1(sol.TotalMonthlyUSD/1e6))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 describes the network chosen for 100 % green energy without
// storage (the input of the Fig. 15 emulation).
func (s *Suite) Table3() (*Table, error) {
	sol, err := s.noStorageNetwork()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table3",
		Title:   "Network for 100% green energy without storage",
		Columns: []string{"location", "IT capacity (MW)", "solar (MW)", "wind (MW)"},
	}
	for _, site := range sol.Sites {
		t.Rows = append(t.Rows, []string{
			site.Site.Name, f1(site.Provision.CapacityKW / 1000),
			f1(site.Provision.SolarKW / 1000), f1(site.Provision.WindKW / 1000),
		})
	}
	return t, nil
}

// noStorageNetwork solves (and caches, via solveSweep) the 100 % green
// no-storage siting used by Table III and Fig. 15.
func (s *Suite) noStorageNetwork() (*core.Solution, error) {
	pts, err := s.solveSweep(energy.NoStorage, core.SolarAndWind)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if p.greenPct == 100 && p.solution != nil {
			return p.solution, nil
		}
	}
	filtered, err := s.candidateList()
	if err != nil {
		return nil, err
	}
	opts := s.cfg.solveOptions()
	opts.Candidates = filtered
	spec := s.baseSpec()
	spec.MinGreenFraction = 1
	spec.Storage = energy.NoStorage
	return core.Solve(s.catalog, spec, opts)
}

// Fig15 runs the GreenNebula emulation over the no-storage network for one
// day and reports the per-hour, per-datacenter load distribution.
func (s *Suite) Fig15() (*Table, error) {
	sol, err := s.noStorageNetwork()
	if err != nil {
		return nil, err
	}
	res, err := s.runEmulation(sol, 24)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Follow-the-renewables load distribution over one day (kW, 9-VM scale)",
		Columns: []string{"hour", "datacenter", "green", "load", "pueOverhead", "migration", "brown", "vms"},
	}
	for _, rec := range res.Trace {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(rec.Hour), rec.Datacenter, f2(rec.GreenKW), f2(rec.LoadKW),
			f2(rec.PUEOverheadKW), f2(rec.MigrationKW), f2(rec.BrownKW), strconv.Itoa(rec.VMCount),
		})
	}
	t.Rows = append(t.Rows, []string{
		"summary", fmt.Sprintf("%d migrations", res.Migrations),
		f2(res.TotalGreenKWh), f2(res.TotalDemandKWh), "-", f2(res.TotalMigrationKWh),
		f2(res.TotalBrownKWh), fmt.Sprintf("green=%.0f%%", 100*res.GreenFraction),
	})
	return t, nil
}

// runEmulation scales the solved network down to the paper's 9-VM validation
// size and runs the GreenNebula emulation for the given number of hours.
func (s *Suite) runEmulation(sol *core.Solution, hours int) (*emul.Result, error) {
	fleet := vm.NewHPCFleet("hpc", 9)
	fleetKW := fleet.TotalPowerW() / 1000

	dcs := make([]emul.DatacenterConfig, 0, len(sol.Sites))
	for _, site := range sol.Sites {
		// Scale plant sizes so the emulated fleet sees the same
		// green-to-demand ratio as the full-size network.
		scale := fleetKW / site.Provision.CapacityKW
		dcs = append(dcs, emul.DatacenterConfig{
			Name:       site.Site.Name,
			Site:       site.Site,
			CapacityKW: fleetKW,
			SolarKW:    site.Provision.SolarKW * scale,
			WindKW:     site.Provision.WindKW * scale,
		})
	}
	return emul.Run(emul.Config{
		Datacenters:  dcs,
		VMs:          fleet,
		StartHour:    24 * 172, // an arbitrary mid-year day
		Hours:        hours,
		HorizonHours: 24,
		Link:         wan.Link{BandwidthMbps: 100, LatencyMs: 90},
	})
}

// SchedulerTiming measures how long GreenNebula's scheduler needs to compute
// a migration schedule for the 50 MW and 200 MW setups of Section V-C.
func (s *Suite) SchedulerTiming() (*Table, error) {
	t := &Table{
		ID:      "sched-timing",
		Title:   "GreenNebula scheduler time per migration schedule",
		Columns: []string{"setup", "horizon(h)", "datacenters", "avg time (ms)"},
	}
	if s.cfg.Verbose {
		t.Columns = append(t.Columns, "lp pivots", "cold fallbacks")
	}
	for _, setup := range []struct {
		name    string
		totalKW float64
		dcs     int
	}{
		{"50MW-3dc", 50_000, 3},
		{"200MW-3dc", 200_000, 3},
	} {
		states := make([]sched.DatacenterState, setup.dcs)
		horizon := 48
		for d := 0; d < setup.dcs; d++ {
			forecastSeries := make([]float64, horizon)
			for h := 0; h < horizon; h++ {
				if (h+8*d)%24 < 8 {
					forecastSeries[h] = setup.totalKW * 1.2
				}
			}
			states[d] = sched.DatacenterState{
				Name:               fmt.Sprintf("dc-%d", d),
				CapacityKW:         setup.totalKW,
				CurrentLoadKW:      setup.totalKW / float64(setup.dcs),
				GreenForecastKW:    forecastSeries,
				PUE:                []float64{1.07},
				GridPriceUSDPerKWh: 0.09,
			}
		}
		scheduler := sched.New(sched.Options{HorizonHours: horizon, MigrationFraction: 1})
		const rounds = 3
		var lpStats lp.Stats
		start := time.Now()
		for i := 0; i < rounds; i++ {
			plan, err := scheduler.Partition(states, setup.totalKW)
			if err != nil {
				return nil, err
			}
			lpStats.Add(plan.LPStats)
		}
		avgMs := float64(time.Since(start).Milliseconds()) / rounds
		row := []string{setup.name, strconv.Itoa(horizon), strconv.Itoa(setup.dcs), f1(avgMs)}
		if s.cfg.Verbose {
			row = append(row,
				strconv.Itoa(lpStats.Pivots),
				strconv.Itoa(lpStats.ColdFallbacks))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// HeuristicVsExact compares the heuristic solver against the exact MILP on a
// small instance (the paper validates its heuristic the same way at the 0 %
// and 100 % green extremes).
func (s *Suite) HeuristicVsExact() (*Table, error) {
	cat, err := location.Generate(location.Options{Count: 16, Seed: s.cfg.Seed, RepresentativeDays: 1})
	if err != nil {
		return nil, err
	}
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = 10_000
	spec.MinGreenFraction = 0
	spec.Storage = energy.NoStorage

	ids := []int{0, 1, 2}
	t := &Table{
		ID:      "heuristic-vs-exact",
		Title:   "Heuristic solver vs. exact MILP on a small brown instance",
		Columns: []string{"solver", "monthly cost ($M)", "datacenters", "runtime (ms)"},
	}
	if s.cfg.Verbose {
		t.Columns = append(t.Columns, "nodes", "proven", "gap (%)", "lp pivots", "cold fallbacks")
	}
	start := time.Now()
	// The search is capped at 50 nodes; -v prints whether it closed within
	// them, and the bound gap it left open.
	exact, err := core.SolveExact(cat, ids, spec, core.ExactOptions{MaxNodes: 50, Ctx: s.cfg.Ctx})
	if err != nil {
		return nil, err
	}
	exactMs := time.Since(start).Milliseconds()

	sub, err := cat.Subset(ids)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	heur, err := core.Solve(sub, spec, core.SolveOptions{FilterKeep: 3, Chains: 2, MaxIterations: 25, Seed: s.cfg.Seed, Ctx: s.cfg.Ctx})
	if err != nil {
		return nil, err
	}
	heurMs := time.Since(start).Milliseconds()

	exactRow := []string{"exact MILP", f2(exact.TotalMonthlyUSD / 1e6), strconv.Itoa(len(exact.Sites)), strconv.FormatInt(exactMs, 10)}
	heurRow := []string{"heuristic", f2(heur.TotalMonthlyUSD / 1e6), strconv.Itoa(len(heur.Sites)), strconv.FormatInt(heurMs, 10)}
	if s.cfg.Verbose {
		st := exact.ExactLPStats
		exactRow = append(exactRow,
			strconv.Itoa(exact.ExactNodes),
			strconv.FormatBool(exact.ExactProven),
			f2(100*exact.ExactGap),
			strconv.Itoa(st.Pivots),
			strconv.Itoa(st.ColdFallbacks))
		heurRow = append(heurRow, "-", "-", "-", "-", "-") // the heuristic path runs no LPs
	}
	t.Rows = append(t.Rows, exactRow, heurRow)
	return t, nil
}

// All runs every experiment and returns the tables in paper order.
func (s *Suite) All() ([]*Table, error) {
	type gen struct {
		name string
		fn   func() (*Table, error)
	}
	gens := []gen{
		{"fig3", s.Fig3}, {"fig4", s.Fig4}, {"fig5", s.Fig5}, {"table2", s.Table2},
		{"fig6", s.Fig6}, {"fig7", s.Fig7}, {"fig8", s.Fig8}, {"fig9", s.Fig9},
		{"fig10", s.Fig10}, {"fig11", s.Fig11}, {"fig12", s.Fig12}, {"fig13", s.Fig13},
		{"table3", s.Table3}, {"fig15", s.Fig15},
		{"sched-timing", s.SchedulerTiming}, {"heuristic-vs-exact", s.HeuristicVsExact},
	}
	out := make([]*Table, 0, len(gens))
	for _, g := range gens {
		if s.cfg.Ctx != nil {
			if err := s.cfg.Ctx.Err(); err != nil {
				// Cancelled between experiments: hand back what finished.
				return out, fmt.Errorf("experiments: cancelled before %s: %w", g.name, err)
			}
		}
		tbl, err := g.fn()
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Run returns a single experiment by its ID ("fig8", "table3", ...).
func (s *Suite) Run(id string) (*Table, error) {
	switch id {
	case "fig3":
		return s.Fig3()
	case "fig4":
		return s.Fig4()
	case "fig5":
		return s.Fig5()
	case "table2":
		return s.Table2()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "fig10":
		return s.Fig10()
	case "fig11":
		return s.Fig11()
	case "fig12":
		return s.Fig12()
	case "fig13":
		return s.Fig13()
	case "table3":
		return s.Table3()
	case "fig15":
		return s.Fig15()
	case "sched-timing":
		return s.SchedulerTiming()
	case "heuristic-vs-exact":
		return s.HeuristicVsExact()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// IDs lists the available experiment IDs in paper order.
func IDs() []string {
	return []string{
		"fig3", "fig4", "fig5", "table2", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "table3", "fig15",
		"sched-timing", "heuristic-vs-exact",
	}
}
