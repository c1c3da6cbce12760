package greencloud_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"greencloud/internal/core"
	"greencloud/internal/emul"
	"greencloud/internal/energy"
	"greencloud/internal/experiments"
	"greencloud/internal/location"
	"greencloud/internal/lp"
	"greencloud/internal/plan"
	"greencloud/internal/series"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// suite is shared across benchmarks: the synthetic catalog and the cached
// sweeps are expensive to build, and sharing them mirrors how the paper's
// evaluation reuses one dataset for every figure.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(experiments.Config{Budget: experiments.Quick, Seed: 1})
	})
	if suiteErr != nil {
		b.Fatalf("build experiment suite: %v", suiteErr)
	}
	return suite
}

// calibrationSink keeps the calibration loop's result live so the compiler
// cannot elide the work.
var calibrationSink uint64

// BenchmarkCalibration is a machine-speed probe: every op runs the same
// fixed amount of pure arithmetic — an integer xorshift feeding a bounded
// floating-point accumulator — with no allocations, no memory traffic
// beyond registers, and no solver code.  Its ns/op therefore tracks only
// how fast the current machine executes compute, which is exactly the
// normalization benchjson's -calibrate flag needs to compare snapshots
// taken on heterogeneous runners: a workload benchmark that got 20% slower
// while Calibration also got 20% slower is a slower machine, not a slower
// program.
func BenchmarkCalibration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		f := 0.0
		for n := 0; n < 1<<16; n++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*0.5 + float64(x>>40)
		}
		calibrationSink = x + uint64(f)
	}
}

// BenchmarkCatalogGenerate builds a catalog in perfbench's set-up shape (300
// sites, 2 representative days): every site's synthetic weather year, its
// hourly α/β/PUE traces and their reduction onto the epoch grid.
func BenchmarkCatalogGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cat, err := location.Generate(location.Options{Count: 300, Seed: int64(i), RepresentativeDays: 2})
		if err != nil {
			b.Fatalf("generate catalog: %v", err)
		}
		if cat.Len() != 300 {
			b.Fatalf("catalog has %d sites, want 300", cat.Len())
		}
	}
}

// runExperiment benchmarks one table/figure generator and reports its rows
// as a sanity check (an empty table means the experiment silently produced
// nothing).
func runExperiment(b *testing.B, id string) {
	s := sharedSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := s.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s: experiment produced no rows", id)
		}
	}
}

// runSweepExperiment benchmarks an experiment built on the green-fraction
// sweeps.  A Suite caches each sweep after its first run, so a shared Suite
// would time cache hits from the second iteration on; every iteration gets
// a fresh Suite instead, built outside the timer.
func runSweepExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := experiments.NewSuite(experiments.Config{Budget: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatalf("build experiment suite: %v", err)
		}
		b.StartTimer()
		table, err := s.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s: experiment produced no rows", id)
		}
	}
}

// BenchmarkEvaluateSteadyState measures one cached-evaluator cost evaluation
// — the annealing inner loop.  The evaluator owns all scratch state, so the
// benchmark must report 0 allocs/op; a regression here puts garbage-collector
// pressure back into Chains × MaxIterations × sweep-points of work.
func BenchmarkEvaluateSteadyState(b *testing.B) {
	cat, err := location.Generate(location.Options{Count: 60, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		b.Fatalf("generate catalog: %v", err)
	}
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = 10_000
	ev, err := core.NewEvaluator(cat, spec)
	if err != nil {
		b.Fatalf("build evaluator: %v", err)
	}
	candidates := []core.Candidate{{SiteID: 2}, {SiteID: 5}, {SiteID: 9}}
	if _, err := ev.EvaluateCost(candidates); err != nil {
		b.Fatalf("warm-up evaluation: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateCost(candidates); err != nil {
			b.Fatalf("evaluate: %v", err)
		}
	}
}

// BenchmarkEvaluateDeltaMove measures the evaluator's delta path: a grow
// and a shrink of one site against a warm evaluator, so each evaluation
// re-runs only the resized site's pipeline plus the shared schedule merge
// (content validation serves the other sites from the per-site cache).
// Must stay at 0 allocs/op.
func BenchmarkEvaluateDeltaMove(b *testing.B) {
	cat, err := location.Generate(location.Options{Count: 60, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		b.Fatalf("generate catalog: %v", err)
	}
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = 10_000
	ev, err := core.NewEvaluator(cat, spec)
	if err != nil {
		b.Fatalf("build evaluator: %v", err)
	}
	base := []core.Candidate{{SiteID: 2, CapacityKW: 5_000}, {SiteID: 5, CapacityKW: 5_000}, {SiteID: 9, CapacityKW: 5_000}}
	grown := []core.Candidate{{SiteID: 2, CapacityKW: 6_250}, {SiteID: 5, CapacityKW: 5_000}, {SiteID: 9, CapacityKW: 5_000}}
	for _, cands := range [][]core.Candidate{base, grown} {
		if _, err := ev.EvaluateCost(cands); err != nil {
			b.Fatalf("warm-up evaluation: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateCost(grown); err != nil {
			b.Fatalf("evaluate: %v", err)
		}
		if _, err := ev.EvaluateCost(base); err != nil {
			b.Fatalf("evaluate: %v", err)
		}
	}
}

// BenchmarkSolveSmallNetwork measures a full heuristic solve (filtering
// skipped, parallel annealing chains over the cached evaluator pool).
func BenchmarkSolveSmallNetwork(b *testing.B) {
	cat, err := location.Generate(location.Options{Count: 60, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		b.Fatalf("generate catalog: %v", err)
	}
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = 10_000
	candidates, err := core.FilterSites(cat, spec, 15)
	if err != nil {
		b.Fatalf("filter sites: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.SolveOptions{Candidates: candidates, Chains: 4, MaxIterations: 40, Seed: 1}
		if _, err := core.Solve(cat, spec, opts); err != nil {
			b.Fatalf("solve: %v", err)
		}
	}
}

// BenchmarkSolveSweep times the siting sweep at the paper's search budget
// in perfbench's siting shape: a 300-site, 2-representative-day catalog
// filtered to 60 locations, then one 11-step green chain (0 %, 10 %, …,
// 100 %) per storage mode, each point a 4-chain × 200-iteration Solve
// warm-started from the previous point's siting.  The evaluator's run
// over each chain's distinct sitings is most of its time.
// Catalog and filter are built once, outside the timer; an unreachable
// point counts as a siting, as in perfbench.
func BenchmarkSolveSweep(b *testing.B) {
	cat, err := location.Generate(location.Options{Count: 300, Seed: 1, RepresentativeDays: 2})
	if err != nil {
		b.Fatalf("generate catalog: %v", err)
	}
	filtered, err := core.FilterSites(cat, core.DefaultSpec(), 60)
	if err != nil {
		b.Fatalf("filter sites: %v", err)
	}
	const greenSteps = 11
	storages := []energy.StorageMode{energy.NoStorage, energy.NetMetering, energy.Batteries}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, storage := range storages {
			var warm []core.Candidate
			for g := 0; g < greenSteps; g++ {
				spec := core.DefaultSpec()
				spec.Storage = storage
				spec.MinGreenFraction = float64(g) / (greenSteps - 1)
				sol, err := core.Solve(cat, spec, core.SolveOptions{Candidates: filtered, InitialCandidates: warm,
					FilterKeep: 60, Chains: 4, MaxIterations: 200, Seed: 1})
				if err != nil {
					if errors.Is(err, core.ErrInfeasible) {
						continue
					}
					b.Fatalf("solve %v at %d%% green: %v", storage, 10*g, err)
				}
				warm = warm[:0]
				for _, s := range sol.Sites {
					warm = append(warm, core.Candidate{SiteID: s.Site.ID, CapacityKW: s.Provision.CapacityKW})
				}
			}
		}
	}
	b.ReportMetric(float64(len(storages)*greenSteps), "sitings/op")
}

// BenchmarkFig3CapacityFactors regenerates the capacity-factor CDF (Fig. 3).
func BenchmarkFig3CapacityFactors(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4PUECurve regenerates the PUE-vs-temperature curve (Fig. 4).
func BenchmarkFig4PUECurve(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5PUEvsCF regenerates the PUE-vs-capacity-factor relation (Fig. 5).
func BenchmarkFig5PUEvsCF(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable2GoodLocations regenerates Table II (good brown/solar/wind sites).
func BenchmarkTable2GoodLocations(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig6SingleDCCostCDF regenerates the per-location cost CDF (Fig. 6).
func BenchmarkFig6SingleDCCostCDF(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7CaseStudy regenerates the 50 MW / 50 % green cost breakdown (Fig. 7).
func BenchmarkFig7CaseStudy(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8NetMetering regenerates cost vs. green % with net metering (Fig. 8).
func BenchmarkFig8NetMetering(b *testing.B) { runSweepExperiment(b, "fig8") }

// BenchmarkFig9Batteries regenerates cost vs. green % with batteries (Fig. 9).
func BenchmarkFig9Batteries(b *testing.B) { runSweepExperiment(b, "fig9") }

// BenchmarkFig10NoStorage regenerates cost vs. green % without storage (Fig. 10).
func BenchmarkFig10NoStorage(b *testing.B) { runSweepExperiment(b, "fig10") }

// BenchmarkFig11CapacityNetMeter regenerates capacity vs. green % with net metering (Fig. 11).
func BenchmarkFig11CapacityNetMeter(b *testing.B) { runSweepExperiment(b, "fig11") }

// BenchmarkFig12CapacityNoStorage regenerates capacity vs. green % without storage (Fig. 12).
func BenchmarkFig12CapacityNoStorage(b *testing.B) { runSweepExperiment(b, "fig12") }

// BenchmarkFig13MigrationImpact regenerates cost vs. migration overhead (Fig. 13).
func BenchmarkFig13MigrationImpact(b *testing.B) { runSweepExperiment(b, "fig13") }

// BenchmarkTable3NoStorageNetwork regenerates the 100 % green / no-storage network (Table III).
func BenchmarkTable3NoStorageNetwork(b *testing.B) { runSweepExperiment(b, "table3") }

// BenchmarkFig15FollowRenewables regenerates the follow-the-renewables day trace (Fig. 15).
func BenchmarkFig15FollowRenewables(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkSchedulerComputeTime measures the GreenNebula scheduler's
// migration-schedule computation time (Section V-C).
func BenchmarkSchedulerComputeTime(b *testing.B) { runExperiment(b, "sched-timing") }

// BenchmarkHeuristicVsExactSmall compares the heuristic solver against the
// exact MILP on a small instance (Section III-D).
func BenchmarkHeuristicVsExactSmall(b *testing.B) { runExperiment(b, "heuristic-vs-exact") }

// emulBenchConfig builds an nDC-datacenter follow-the-renewables emulation
// over the synthetic catalog's best solar sites (spread across time zones so
// the sun is always up somewhere), with plants heavily overbuilt relative to
// the nVMs-VM fleet so load actually chases the sun.  It mirrors
// internal/emul's test configuration, parameterized for scale.
func emulBenchConfig(b *testing.B, nDC, nVMs, hours int) emul.Config {
	b.Helper()
	cat, err := location.Generate(location.Options{Count: 60, Seed: 21, RepresentativeDays: 1})
	if err != nil {
		b.Fatalf("generate catalog: %v", err)
	}
	fleet := vm.NewHPCFleet("hpc", nVMs)
	fleetKW := fleet.TotalPowerW() / 1000

	solar := cat.TopBySolarCF(16)
	picked := []*location.Site{solar[0]}
	for _, cand := range solar[1:] {
		distinct := true
		for _, p := range picked {
			d := cand.UTCOffsetHours - p.UTCOffsetHours
			if d < 0 {
				d = -d
			}
			if d > 12 {
				d = 24 - d
			}
			if d < 5 {
				distinct = false
				break
			}
		}
		if distinct {
			picked = append(picked, cand)
		}
		if len(picked) == nDC {
			break
		}
	}
	for len(picked) < nDC {
		picked = append(picked, solar[len(picked)])
	}

	dcs := make([]emul.DatacenterConfig, 0, nDC)
	for _, site := range picked {
		dcs = append(dcs, emul.DatacenterConfig{
			Name:       site.Name,
			Site:       site,
			CapacityKW: fleetKW,
			SolarKW:    fleetKW * 8 / site.SolarCapacityFactor * 0.25,
			WindKW:     0.2,
		})
	}
	return emul.Config{
		Datacenters:  dcs,
		VMs:          fleet,
		StartHour:    24 * 172,
		Hours:        hours,
		HorizonHours: 12,
		Link:         wan.Link{BandwidthMbps: 1000, LatencyMs: 90},
	}
}

// BenchmarkEmulDay measures one 24-hour GreenNebula emulation day at the
// paper's 9-VM validation scale on a reused Runner — the metadata-plane GDFS
// and the Runner's scratch reuse are what keep its allocations flat, so
// bytes/op here is a contract, not a curiosity.
func BenchmarkEmulDay(b *testing.B) {
	r, err := emul.NewRunner(emulBenchConfig(b, 3, 9, 24))
	if err != nil {
		b.Fatalf("build runner: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if res.Migrations == 0 {
			b.Fatal("emulation produced no migrations")
		}
	}
}

// BenchmarkPlannerTick measures the continuous planner's steady-state tick:
// ingest one streamed hour, rewrite the RHS/bounds of the structure-cached
// partition LP, re-solve warm from the carried basis, execute the migration
// schedule and publish the new serving view.  This is the latency a plannerd
// client sees on POST /tick once the daemon is warm; the benchmark fails if
// any measured tick falls back to a cold solve, and reports the simplex
// pivots per tick so a changed pivot path shows up beside the time.
func BenchmarkPlannerTick(b *testing.B) { benchPlannerTick(b, plan.TraceSpec{}) }

// BenchmarkPlannerTickFleet is BenchmarkPlannerTick on perfbench's
// planner-fleet trace (4 datacenters × 200 VMs), where migrations and GDFS
// bookkeeping share the tick with the LP.
func BenchmarkPlannerTickFleet(b *testing.B) {
	benchPlannerTick(b, plan.TraceSpec{Datacenters: 4, VMs: 200})
}

// benchPlannerTick times steady ticks of a daemon on spec after two warm-up
// ticks (the first solve is cold by construction), failing on any cold
// fallback and reporting pivots/op.
func benchPlannerTick(b *testing.B, spec plan.TraceSpec) {
	d, err := plan.New(plan.Config{Trace: spec})
	if err != nil {
		b.Fatalf("build daemon: %v", err)
	}
	defer d.Close()
	for i := 0; i < 2; i++ {
		if _, err := d.Tick(plan.TickRequest{}); err != nil {
			b.Fatalf("warmup tick: %v", err)
		}
	}
	base := d.PlanView().CumLPStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := d.Tick(plan.TickRequest{})
		if err != nil {
			b.Fatalf("tick: %v", err)
		}
		if view.CumLPStats.ColdFallbacks != base.ColdFallbacks {
			b.Fatal("steady-state tick fell back cold")
		}
	}
	b.StopTimer()
	pivots := d.PlanView().CumLPStats.Pivots - base.Pivots
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// BenchmarkPlannerTickJournal is BenchmarkPlannerTick with the tick
// journal on (Config.SnapshotPath in a temp dir), measured after 1000
// warm-up ticks: the append costs the same whatever the daemon's uptime,
// so this matches a young daemon's tick plus one small write.  It reports
// the journal bytes each measured tick appended.
func BenchmarkPlannerTickJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "plan.snap")
	d, err := plan.New(plan.Config{Trace: plan.TraceSpec{}, SnapshotPath: path})
	if err != nil {
		b.Fatalf("build daemon: %v", err)
	}
	defer d.Close()
	for i := 0; i < 1000; i++ {
		if _, err := d.Tick(plan.TickRequest{}); err != nil {
			b.Fatalf("warmup tick: %v", err)
		}
	}
	base := d.PlanView().CumLPStats.ColdFallbacks
	before, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := d.Tick(plan.TickRequest{})
		if err != nil {
			b.Fatalf("tick: %v", err)
		}
		if view.CumLPStats.ColdFallbacks != base || view.SnapshotError != "" {
			b.Fatalf("steady-state tick fell back cold or failed to persist: %q", view.SnapshotError)
		}
	}
	b.StopTimer()
	after, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(after.Size()-before.Size())/float64(b.N), "journal_B/op")
}

// BenchmarkPlannerRestore measures a plannerd restart on the fleet trace
// (4 datacenters × 200 VMs): plan.New resuming from a 207-record tick
// journal, replaying every record's migrations and GDFS rounds.  The
// journal is written outside the timer with a green-scale change every
// eighth tick, the stream perfbench's planner-fleet workload feeds; a
// restart that does not tick leaves the journal as it was, so every
// iteration restores the same state.
func BenchmarkPlannerRestore(b *testing.B) {
	const ticks = 207
	spec := plan.TraceSpec{Datacenters: 4, VMs: 200}
	path := filepath.Join(b.TempDir(), "plan.snap")
	d, err := plan.New(plan.Config{Trace: spec, SnapshotPath: path})
	if err != nil {
		b.Fatalf("build daemon: %v", err)
	}
	names := d.PlanView().Datacenters
	scales := []float64{0.9, 1.1, 0.95, 1.05, 1}
	for i := 0; i < ticks; i++ {
		var req plan.TickRequest
		if k := i / 8; i%8 == 0 {
			req.GreenScale = map[string]float64{names[k%len(names)]: scales[k%len(scales)]}
		}
		if view, err := d.Tick(req); err != nil || view.SnapshotError != "" {
			b.Fatalf("tick %d: %v %s", i, err, view.SnapshotError)
		}
	}
	want := d.PlanView()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := plan.New(plan.Config{Trace: spec, SnapshotPath: path})
		if err != nil {
			b.Fatalf("restore: %v", err)
		}
		got := r.PlanView()
		if got.Tick != ticks || !got.WarmResume || got.Totals != want.Totals {
			b.Fatalf("restored tick %d warm=%v totals %+v, want tick %d warm with %+v",
				got.Tick, got.WarmResume, got.Totals, ticks, want.Totals)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulScale measures the emulation at production scale — 2000 VMs
// across 4 datacenters for 12 hours.  GDFS tracks each replica as three
// scalars rather than its bytes (2000 VMs × 64 MiB of blocks would be
// 128 GiB of live byte slices), so the whole run completes in seconds.
func BenchmarkEmulScale(b *testing.B) {
	r, err := emul.NewRunner(emulBenchConfig(b, 4, 2000, 12))
	if err != nil {
		b.Fatalf("build runner: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if res.Migrations == 0 {
			b.Fatal("emulation produced no migrations")
		}
	}
}

// lpBenchDCs × lpBenchHorizon is the shape of the benchmark partition LP —
// the scheduler's production shape (3 datacenters × 48 hours).
const (
	lpBenchDCs     = 3
	lpBenchHorizon = 48
)

// partitionLP builds a scheduler-shaped partition LP (nDC datacenters ×
// horizon hours: load/migration/brown variables, placement equalities,
// migration-overhead, brown-deficit and capacity rows) with a phase
// parameter that shifts the green forecasts, so successive phases model
// successive scheduling rounds.  The placement rows are, by construction,
// the first horizon constraints (indices [0, horizon)) — the rhs the
// re-solve benchmark rewrites.
func partitionLP(b *testing.B, nDC, horizon int, phase float64) *lp.Problem {
	b.Helper()
	const totalLoad = 900.0
	prob := lp.NewProblem(lp.Minimize)
	load := make([][]lp.Var, nDC)
	mig := make([][]lp.Var, nDC)
	brown := make([][]lp.Var, nDC)
	var err error
	for d := 0; d < nDC; d++ {
		load[d] = make([]lp.Var, horizon)
		mig[d] = make([]lp.Var, horizon)
		brown[d] = make([]lp.Var, horizon)
		price := 0.08 + 0.01*float64(d)
		for h := 0; h < horizon; h++ {
			if load[d][h], err = prob.AddVariable("load", 0, lp.Infinity, 0); err != nil {
				b.Fatal(err)
			}
			if mig[d][h], err = prob.AddVariable("mig", 0, lp.Infinity, price*0.1); err != nil {
				b.Fatal(err)
			}
			if brown[d][h], err = prob.AddVariable("brown", 0, lp.Infinity, price); err != nil {
				b.Fatal(err)
			}
		}
	}
	for h := 0; h < horizon; h++ {
		terms := make([]lp.Term, nDC)
		for d := 0; d < nDC; d++ {
			terms[d] = lp.Term{Var: load[d][h], Coeff: 1}
		}
		if err := prob.AddConstraint("place", lp.EQ, totalLoad, terms...); err != nil {
			b.Fatal(err)
		}
	}
	const f = 1.0
	for d := 0; d < nDC; d++ {
		for h := 0; h < horizon; h++ {
			green := 600 * math.Max(0, math.Sin(float64(h+8*d)/24*2*math.Pi+phase))
			terms := []lp.Term{{Var: mig[d][h], Coeff: 1}, {Var: load[d][h], Coeff: f}}
			rhs := 0.0
			if h == 0 {
				rhs = f * totalLoad / float64(nDC)
			} else {
				terms = append(terms, lp.Term{Var: load[d][h-1], Coeff: -f})
			}
			if err := prob.AddConstraint("migOut", lp.GE, rhs, terms...); err != nil {
				b.Fatal(err)
			}
			if err := prob.AddConstraint("brown", lp.GE, -green,
				lp.Term{Var: brown[d][h], Coeff: 1},
				lp.Term{Var: load[d][h], Coeff: -1.08},
				lp.Term{Var: mig[d][h], Coeff: -1.08}); err != nil {
				b.Fatal(err)
			}
			if err := prob.AddConstraint("cap", lp.LE, totalLoad,
				lp.Term{Var: load[d][h], Coeff: 1},
				lp.Term{Var: mig[d][h], Coeff: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return prob
}

// BenchmarkLPSolve measures a cold solve of the scheduler-shaped partition
// LP (3 datacenters × 48 hours, 432 variables / 480 rows) — the from-scratch
// path of the revised simplex: standardize, factorize the slack basis,
// phase 1 + phase 2 — and reports the pivots it took (pivots/op).  The
// pricing-rule A/B on the same LP is internal/lp's BenchmarkLPPricing.
func BenchmarkLPSolve(b *testing.B) {
	prob := partitionLP(b, lpBenchDCs, lpBenchHorizon, 0)
	pivots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := prob.Solve()
		if err != nil {
			b.Fatal(err)
		}
		pivots = sol.Stats.Pivots
	}
	b.ReportMetric(float64(pivots), "pivots/op")
}

// BenchmarkLPResolve measures the warm-started re-solve path that
// internal/sched and internal/milp live on: the same partition LP with its
// right-hand sides perturbed each round, re-solved from the previous
// round's Basis (dual-simplex restart).  The gap between this and
// BenchmarkLPSolve is the payoff of the basis-reuse API.
func BenchmarkLPResolve(b *testing.B) {
	prob := partitionLP(b, lpBenchDCs, lpBenchHorizon, 0)
	sol, err := prob.Solve()
	if err != nil {
		b.Fatal(err)
	}
	basis := sol.Basis()
	const nPlace = lpBenchHorizon // placement rows are constraints [0, horizon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb the round's total load and re-solve warm.
		totalLoad := 900.0 + float64(i%2)*50
		for h := 0; h < nPlace; h++ {
			if err := prob.SetRHS(h, totalLoad); err != nil {
				b.Fatal(err)
			}
		}
		warm, err := prob.SolveFrom(basis)
		if err != nil {
			b.Fatal(err)
		}
		basis = warm.Basis()
	}
}

// BenchmarkLPBounded measures a cold solve of a bound-heavy covering LP
// (240 variables, every one carrying a finite upper bound, 24 rows) — the
// shape of the milp branch-and-bound relaxations, where variable bounds
// dominate the model.  The bounded revised simplex keeps those bounds
// implicit (nonbasic-at-bound statuses and bound flips), so the basis
// stays 24×24; the pre-bounded core expanded every finite bound into an
// explicit row plus a slack column and factorized a 264×264 basis for the
// same model.
func BenchmarkLPBounded(b *testing.B) {
	const (
		nVars = 240
		nCons = 24
	)
	rng := rand.New(rand.NewSource(17))
	prob := lp.NewProblem(lp.Minimize)
	vars := make([]lp.Var, nVars)
	ubs := make([]float64, nVars)
	var err error
	for j := 0; j < nVars; j++ {
		ubs[j] = 0.5 + rng.Float64()*2.5
		if vars[j], err = prob.AddVariable("x", 0, ubs[j], 0.1+rng.Float64()*1.9); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nCons; i++ {
		terms := make([]lp.Term, 0, nVars/2)
		capacity := 0.0
		for j := 0; j < nVars; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			a := 0.2 + rng.Float64()*1.3
			capacity += a * ubs[j]
			terms = append(terms, lp.Term{Var: vars[j], Coeff: a})
		}
		// Demand at 30% of what the bounded variables can jointly cover
		// keeps every instance feasible while forcing a third of the
		// columns to their upper bounds.
		if err := prob.AddConstraint("cover", lp.GE, 0.3*capacity, terms...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// kernelEpochs is the row length of the series-kernel microbenchmarks: one
// hourly year, the largest epoch grid the evaluator runs on.  The kernels
// below are the hot inner loops of the schedule merge (WeightedSum), the
// per-site stage (ScaledDrop, AddMul, SumScaled) and the O(1) clean-site
// revalidation (Digest); benchmarking them in isolation gives future
// vectorization work a baseline that is not confounded by the pipeline
// around them.
const kernelEpochs = 8760

func kernelRows(n int) (x, y, z, dst []float64) {
	rng := rand.New(rand.NewSource(1))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	dst = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * 1000
		y[i] = rng.Float64() * 1000
		z[i] = 1 + rng.Float64()
	}
	return
}

// BenchmarkSeriesWeightedSum measures the schedule-merge/green-production
// kernel dst = a·x + b·y over one row.
func BenchmarkSeriesWeightedSum(b *testing.B) {
	x, y, _, dst := kernelRows(kernelEpochs)
	b.SetBytes(3 * 8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.WeightedSum(dst, 2.5, x, 0.75, y)
	}
}

// BenchmarkSeriesAddMul measures the facility-demand kernel
// dst = (x + y)·z over one row.
func BenchmarkSeriesAddMul(b *testing.B) {
	x, y, z, dst := kernelRows(kernelEpochs)
	b.SetBytes(4 * 8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.AddMul(dst, x, y, z)
	}
}

// BenchmarkSeriesSum measures the plain reduction kernel Σ x over one row
// (4-way unrolled, single accumulator — the addition chain is part of the
// bit-identity contract).
func BenchmarkSeriesSum(b *testing.B) {
	x, _, _, _ := kernelRows(kernelEpochs)
	b.SetBytes(8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += series.Sum(x)
	}
	_ = sink
}

// BenchmarkSeriesSumScaled measures the epoch-weighted total kernel
// Σ x·w (uniform weight w) over one row.
func BenchmarkSeriesSumScaled(b *testing.B) {
	x, _, _, _ := kernelRows(kernelEpochs)
	b.SetBytes(8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += series.SumScaled(x, 182.5)
	}
	_ = sink
}

// BenchmarkSeriesScaledDrop measures the migration-overhead kernel over one
// schedule row.
func BenchmarkSeriesScaledDrop(b *testing.B) {
	x, _, _, dst := kernelRows(kernelEpochs)
	b.SetBytes(2 * 8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.ScaledDrop(dst, 0.5, x)
	}
}

// BenchmarkSeriesDigest measures the schedule-row digest that backs the
// delta evaluator's O(1) clean-site revalidation.
func BenchmarkSeriesDigest(b *testing.B) {
	x, _, _, _ := kernelRows(kernelEpochs)
	b.SetBytes(8 * kernelEpochs)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= series.Digest(x)
	}
	_ = sink
}
