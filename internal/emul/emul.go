// Package emul is the GreenNebula emulation harness: it wires together the
// within-datacenter managers (internal/nebula), the multi-datacenter
// scheduler (internal/sched), the WAN and live-migration models
// (internal/wan, internal/migrate), GDFS (internal/gdfs) and the green
// energy traces of the selected sites (internal/location) to reproduce the
// follow-the-renewables experiments of Section V of the paper — in
// particular the day-long load-distribution trace of Fig. 15.
//
// # Runner and scratch ownership
//
// A Runner owns every piece of reusable state an emulation needs — the
// green/PUE year traces (series.Block rows), the per-hour scheduler view
// (states, forecast and PUE horizon windows, placements), the migration
// pipeline's shards and the per-datacenter fleets — so the hour loop does
// not allocate.  The rules:
//
//   - Scratch is owned by the Runner and valid only within the Run call
//     that is using it; nothing reachable from a returned Result aliases
//     it (each Run allocates a fresh Result and Trace).
//   - sched.DatacenterState rows handed to the scheduler point into the
//     Runner's forecast/PUE scratch; the scheduler copies what it keeps.
//   - A Runner is single-goroutine: one Run at a time.  Repeated Run calls
//     are independent — the scheduler's warm-start basis is dropped
//     between runs (sched.Reset), so every Run is bit-identical to a
//     fresh one.
package emul

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"greencloud/internal/gdfs"
	"greencloud/internal/location"
	"greencloud/internal/lp"
	"greencloud/internal/migrate"
	"greencloud/internal/nebula"
	"greencloud/internal/predict"
	"greencloud/internal/sched"
	"greencloud/internal/series"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// DatacenterConfig describes one emulated datacenter.
type DatacenterConfig struct {
	// Name identifies the datacenter.
	Name string
	// Site provides the green-energy and PUE traces.
	Site *location.Site
	// CapacityKW is the IT capacity of the datacenter.
	CapacityKW float64
	// SolarKW and WindKW are the on-site plant sizes.
	SolarKW float64
	WindKW  float64
	// Hosts is the number of physical machines to emulate.  Zero sizes the
	// datacenter just large enough for the whole VM fleet.
	Hosts int
}

// Config describes a whole emulation run.
type Config struct {
	// Datacenters are the sites of the network (the paper uses three).
	Datacenters []DatacenterConfig
	// VMs is the workload to host (the paper's validation uses 9 HPC VMs;
	// the Fig. 15 experiment scales the same shape up to the datacenter
	// size).
	VMs vm.Fleet
	// StartHour is the hour of the TMY year at which the emulation starts.
	StartHour int
	// Hours is the length of the emulation.
	Hours int
	// HorizonHours is the scheduler's prediction horizon (default 48).
	HorizonHours int
	// Link is the WAN link used between every pair of datacenters.
	Link wan.Link
	// Predictor selects the green-energy predictor ("perfect",
	// "persistence" or "diurnal"; default "perfect", as in the paper).
	Predictor string
	// LPTimeout, when positive, bounds each scheduling round's partition
	// LP solve (sched.Options.LPTimeout): a round that overruns degrades
	// to the static greedy split instead of blocking the hour.  A serving
	// daemon sets this so a tick can never stall its control loop.
	LPTimeout time.Duration
}

// HourRecord is one datacenter-hour of the emulation trace — the data behind
// Fig. 15.
type HourRecord struct {
	Hour           int
	Datacenter     string
	GreenKW        float64
	LoadKW         float64
	PUEOverheadKW  float64
	MigrationKW    float64
	BrownKW        float64
	VMCount        int
	MigrationsIn   int
	MigrationsOut  int
	MigratedBytes  int64
	SchedulerNanos int64
}

// Result is the output of an emulation run.
type Result struct {
	// Trace holds one record per datacenter per hour.
	Trace []HourRecord
	// TotalGreenKWh, TotalBrownKWh and TotalMigrationKWh summarize the run.
	TotalGreenKWh     float64
	TotalBrownKWh     float64
	TotalDemandKWh    float64
	TotalMigrationKWh float64
	// Migrations is the total number of VM migrations performed.
	Migrations int
	// AvgScheduleNanos is the average time the scheduler needed to compute
	// a migration schedule.
	AvgScheduleNanos int64
	// GreenFraction is the fraction of total demand covered by green
	// energy during the run.
	GreenFraction float64
}

// Errors returned by Run.
var (
	ErrNoDatacenters = errors.New("emul: need at least two datacenters")
	ErrNoVMs         = errors.New("emul: need at least one VM")
)

// maxGDFSDiskMB caps how much of each VM's disk is materialized in the
// in-memory GDFS during an emulation.  The migration and re-replication
// behaviour only depends on the recently dirtied blocks (110 MB/h in the
// paper's workload), so representing a 64 MB working-set window of the 5 GB
// disk keeps memory bounded without changing what the experiment measures.
const maxGDFSDiskMB = 64

// Run executes the emulation.  It is the one-shot convenience around
// NewRunner + Runner.Run.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// moveShard is the migration pipeline's unit of work: all of one hour's
// moves into a single destination datacenter, executed in schedule order.
// Shards run concurrently — a datacenter is never donor and receiver in
// the same round, so no two shards place into or remove from a manager
// whose packing another shard is reading — and their accumulators are
// merged in destination order, making the pipeline's output independent of
// goroutine interleaving.
type moveShard struct {
	moves    []int // indices into the hour's move list, schedule order
	executed []int // moves actually placed (receiver had room)
	failed   []int // moves rolled back sequentially after the join
	energy   []float64
	bytes    []int64
	in, out  []int
	err      error
}

// Runner owns the reusable state of an emulation (see the package comment
// for the scratch-ownership rules).  Create one with NewRunner and call
// Run; repeated Runs reuse the traces, predictors, scheduler LP structure
// and every scratch buffer.
type Runner struct {
	cfg     Config
	names   []string
	dcIndex map[string]int
	network *wan.Network

	// Year traces, one row per datacenter, backed by a single Block when
	// every site shares a trace length (they do for one catalog).
	green [][]float64
	pue   [][]float64

	predictors     []predict.Predictor
	scheduler      *sched.Scheduler
	totalVMPowerKW float64
	vmPaths        []string
	vmIndex        map[string]int

	// Per-run cluster state, rebuilt at the top of each Run.
	managers []*nebula.Datacenter
	master   *gdfs.Master
	cluster  *gdfs.Cluster
	clients  []*gdfs.Client
	files    []*gdfs.FileInfo
	home     []int
	fleets   []vm.Fleet

	// Per-hour scratch.  windows holds the forecast rows (0..n-1) and PUE
	// rows (n..2n-1) of the scheduler's horizon view.
	states     []sched.DatacenterState
	windows    series.Block
	placements map[string]vm.Fleet
	migEnergy  []float64
	migBytes   []int64
	migIn      []int
	migOut     []int
	shards     []moveShard
	movedOut   map[string]struct{}

	// Streaming state: the tick counter advanced by Step/Replay, the
	// per-datacenter green-production scale (streamed weather updates;
	// all-ones by default, which multiplies exactly) and the Tick scratch
	// the step API hands back.
	hour       int
	greenScale []float64
	tick       Tick
}

// Tick is the outcome of one emulated hour produced by Step (or Replay).
// Records and Moves alias Runner-owned scratch and are valid only until the
// next Step/Replay call; callers that retain them must copy.
type Tick struct {
	// Index is the 0-based tick number since Start.
	Index int
	// AbsHour is the absolute hour of the year trace this tick emulated.
	AbsHour int
	// Records holds one HourRecord per datacenter, in configuration order.
	Records []HourRecord
	// Plan is the scheduling round's partition plan (nil on Replay ticks,
	// which execute a recorded schedule without re-planning).
	Plan *sched.Plan
	// Moves is the migration schedule this tick executed — the replay log a
	// snapshot needs to reconstruct fleet and disk state deterministically.
	Moves []sched.Migration
	// Migrations is how many scheduled moves actually executed (a receiver
	// at capacity rolls the move back).
	Migrations int
	// LPStats is the partition LP's work for this round; ColdFallbacks
	// stays 0 across healthy warm ticks.
	LPStats lp.Stats
	// Degraded reports a tick whose plan fell back to the static greedy
	// split (solver failure or LPTimeout).
	Degraded bool
	// SchedulerNanos is the wall-clock planning time of this tick (zero on
	// Replay); it is the one non-deterministic field.
	SchedulerNanos int64
}

// NewRunner validates the configuration and builds the immutable parts of
// an emulation: WAN mesh, green/PUE traces, predictors, scheduler.
func NewRunner(cfg Config) (*Runner, error) {
	if len(cfg.Datacenters) < 2 {
		return nil, ErrNoDatacenters
	}
	if len(cfg.VMs) == 0 {
		return nil, ErrNoVMs
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	if cfg.HorizonHours <= 0 {
		cfg.HorizonHours = 48
	}
	if cfg.Link.BandwidthMbps == 0 {
		cfg.Link = wan.DefaultLink
	}

	n := len(cfg.Datacenters)
	r := &Runner{cfg: cfg}
	r.names = make([]string, n)
	for i, dc := range cfg.Datacenters {
		if dc.Site == nil {
			return nil, fmt.Errorf("emul: datacenter %q has no site", dc.Name)
		}
		r.names[i] = dc.Name
	}
	network, err := wan.FullMesh(r.names, cfg.Link)
	if err != nil {
		return nil, err
	}
	r.network = network
	r.dcIndex = make(map[string]int, n)
	for i, name := range r.names {
		r.dcIndex[name] = i
	}

	// Green production and PUE traces per datacenter (hourly, UTC clock).
	// All sites of a catalog share the trace length, letting one Block back
	// every row; mixed lengths fall back to per-row slices.
	r.green = make([][]float64, n)
	r.pue = make([][]float64, n)
	uniform := true
	first := -1
	for _, dc := range cfg.Datacenters {
		alpha, _, _ := dc.Site.HourlyProfilesUTC()
		if first < 0 {
			first = alpha.Len()
		} else if alpha.Len() != first {
			uniform = false
		}
	}
	var yearBlock series.Block
	if uniform {
		yearBlock = series.NewBlock(2*n, first)
	}
	for i, dc := range cfg.Datacenters {
		alpha, beta, pueSeries := dc.Site.HourlyProfilesUTC()
		var g, p []float64
		if uniform {
			g, p = yearBlock.Row(i), yearBlock.Row(n+i)
		} else {
			g = make([]float64, alpha.Len())
			p = make([]float64, alpha.Len())
		}
		series.WeightedSum(g, dc.SolarKW, alpha.Values(), dc.WindKW, beta.Values())
		copy(p, pueSeries.Values())
		r.green[i] = g
		r.pue[i] = p
	}

	r.predictors = make([]predict.Predictor, n)
	for i := range cfg.Datacenters {
		switch cfg.Predictor {
		case "", "perfect":
			r.predictors[i] = &predict.Perfect{Trace: r.green[i]}
		case "persistence":
			r.predictors[i] = &predict.Persistence{Trace: r.green[i]}
		case "diurnal":
			r.predictors[i] = &predict.Diurnal{Trace: r.green[i]}
		default:
			return nil, fmt.Errorf("emul: unknown predictor %q", cfg.Predictor)
		}
	}

	r.scheduler = sched.New(sched.Options{
		HorizonHours: cfg.HorizonHours,
		LPTimeout:    cfg.LPTimeout,
	})
	r.totalVMPowerKW = cfg.VMs.TotalPowerW() / 1000

	r.vmPaths = make([]string, len(cfg.VMs))
	r.vmIndex = make(map[string]int, len(cfg.VMs))
	for vi, machine := range cfg.VMs {
		r.vmPaths[vi] = "/vm/" + machine.ID + "/disk"
		r.vmIndex[machine.ID] = vi
	}

	// Per-run and per-hour scratch, allocated once.
	r.managers = make([]*nebula.Datacenter, n)
	r.clients = make([]*gdfs.Client, n)
	r.files = make([]*gdfs.FileInfo, len(cfg.VMs))
	r.home = make([]int, len(cfg.VMs))
	r.fleets = make([]vm.Fleet, n)
	r.states = make([]sched.DatacenterState, n)
	r.windows = series.NewBlock(2*n, cfg.HorizonHours)
	r.placements = make(map[string]vm.Fleet, n)
	r.migEnergy = make([]float64, n)
	r.migBytes = make([]int64, n)
	r.migIn = make([]int, n)
	r.migOut = make([]int, n)
	r.shards = make([]moveShard, n)
	for i := range r.shards {
		r.shards[i].energy = make([]float64, n)
		r.shards[i].bytes = make([]int64, n)
		r.shards[i].in = make([]int, n)
		r.shards[i].out = make([]int, n)
	}
	r.movedOut = make(map[string]struct{}, len(cfg.VMs))
	r.greenScale = make([]float64, n)
	for i := range r.greenScale {
		r.greenScale[i] = 1
	}
	r.tick.Records = make([]HourRecord, n)
	return r, nil
}

// sortFleet orders a fleet in SortByFootprint order in place (footprint
// ascending, ties by ID — a total order, so the result is deterministic).
func sortFleet(f vm.Fleet) {
	sort.Slice(f, func(i, j int) bool {
		fi, fj := f[i].FootprintMB(), f[j].FootprintMB()
		if fi != fj {
			return fi < fj
		}
		return f[i].ID < f[j].ID
	})
}

// loadKWOf sums a datacenter fleet's IT power in fleet order.
func (r *Runner) loadKWOf(i int) float64 {
	total := 0.0
	for _, machine := range r.fleets[i] {
		total += machine.PowerW
	}
	return total / 1000
}

// reset rebuilds the per-run state: fresh managers and GDFS cluster, all
// VMs placed at the first datacenter, one disk file per VM, fleets sorted.
func (r *Runner) reset() error {
	cfg := &r.cfg
	n := len(cfg.Datacenters)
	r.master = gdfs.NewMaster(n)
	r.cluster = gdfs.NewCluster(r.master)
	for i, dc := range cfg.Datacenters {
		hosts := dc.Hosts
		if hosts == 0 {
			hosts = len(cfg.VMs) // enough for full replication of the fleet
		}
		r.managers[i] = nebula.NewUniformDatacenter(dc.Name, hosts)
		if err := r.cluster.AddWorker(gdfs.NewMetaWorker(gdfs.WorkerID(dc.Name)), dc.Name); err != nil {
			return err
		}
		client, err := r.cluster.NewClient(gdfs.WorkerID(dc.Name))
		if err != nil {
			return err
		}
		r.clients[i] = client
		r.fleets[i] = r.fleets[i][:0]
	}

	// Initial placement: all VMs start at the first datacenter (the paper's
	// runs start with the load wherever the day begins greenest; starting
	// at a fixed site lets the first scheduling round move it).
	for vi, machine := range cfg.VMs {
		if _, err := r.managers[0].Place(machine); err != nil {
			return fmt.Errorf("emul: initial placement: %w", err)
		}
		r.home[vi] = 0
		diskMB := machine.DiskMB
		if diskMB > maxGDFSDiskMB {
			diskMB = maxGDFSDiskMB
		}
		fi, err := r.clients[0].Create(r.vmPaths[vi], int64(diskMB)<<20)
		if err != nil {
			return err
		}
		r.files[vi] = fi
	}
	r.fleets[0] = append(r.fleets[0], cfg.VMs...)
	sortFleet(r.fleets[0])
	r.scheduler.Reset()
	return nil
}

// Run executes the emulation batch-style: Start, then one Step per
// configured hour, summarized into a Result.  The returned Result is
// freshly allocated and does not alias the Runner's scratch.
func (r *Runner) Run() (*Result, error) {
	if err := r.Start(); err != nil {
		return nil, err
	}
	cfg := &r.cfg
	res := &Result{Trace: make([]HourRecord, 0, cfg.Hours*len(cfg.Datacenters))}
	var schedNanosTotal int64
	for hour := 0; hour < cfg.Hours; hour++ {
		tick, err := r.Step()
		if err != nil {
			return nil, err
		}
		schedNanosTotal += tick.SchedulerNanos
		res.Accumulate(tick)
	}
	if cfg.Hours > 0 {
		res.AvgScheduleNanos = schedNanosTotal / int64(cfg.Hours)
	}
	if res.TotalDemandKWh > 0 {
		res.GreenFraction = res.TotalGreenKWh / res.TotalDemandKWh
	}
	return res, nil
}

// Accumulate folds one tick into the running totals and appends copies of
// its records to the trace, exactly as the batch hour loop always has (same
// addition order, so batch and streamed accounting stay bit-identical).
func (res *Result) Accumulate(tick *Tick) {
	res.Migrations += tick.Migrations
	for i := range tick.Records {
		rec := &tick.Records[i]
		demandKW := rec.LoadKW + rec.PUEOverheadKW + rec.MigrationKW
		res.Trace = append(res.Trace, *rec)
		res.TotalDemandKWh += demandKW
		res.TotalBrownKWh += rec.BrownKW
		res.TotalGreenKWh += demandKW - rec.BrownKW
		res.TotalMigrationKWh += rec.MigrationKW
	}
}

// Start (re)initializes the streamed emulation: per-run cluster state is
// rebuilt, all VMs return to the first datacenter, the tick counter resets
// and the scheduler's warm basis is dropped (the LP structure survives).
// Streamed green-scale adjustments persist across Start — they are input
// state, not run state.
func (r *Runner) Start() error {
	if err := r.reset(); err != nil {
		return err
	}
	r.hour = 0
	return nil
}

// Datacenters returns the configured datacenter names in order (a copy).
func (r *Runner) Datacenters() []string {
	return append([]string(nil), r.names...)
}

// WarmBasis exposes the scheduler's carried partition-LP basis for
// snapshotting; SetWarmBasis installs one (typically decoded from a
// snapshot) so the next Step re-plans warm.
func (r *Runner) WarmBasis() *lp.Basis     { return r.scheduler.WarmBasis() }
func (r *Runner) SetWarmBasis(b *lp.Basis) { r.scheduler.SetWarmBasis(b) }

// SetGreenScale ingests a streamed weather update: from the next tick on,
// datacenter name's green production — realized and forecast — is scaled by
// the given factor (1 restores the trace).  A scale change is a pure
// RHS rewrite of the partition LP, so the warm chain stays warm.
func (r *Runner) SetGreenScale(name string, scale float64) error {
	i, ok := r.dcIndex[name]
	if !ok {
		return fmt.Errorf("emul: unknown datacenter %q", name)
	}
	if scale < 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return fmt.Errorf("emul: invalid green scale %v", scale)
	}
	r.greenScale[i] = scale
	return nil
}

// Step emulates the next hour: build the scheduler's view, re-plan (a warm
// incremental re-solve of the structure-cached partition LP), execute the
// migration schedule, replicate, dirty disks and record the hour.  The
// returned Tick aliases Runner scratch (see Tick).
func (r *Runner) Step() (*Tick, error) {
	absHour := r.cfg.StartHour + r.hour
	if err := r.buildStates(absHour); err != nil {
		return nil, err
	}
	start := nowNanos()
	plan, err := r.scheduler.Partition(r.states, r.totalVMPowerKW)
	if err != nil {
		return nil, fmt.Errorf("emul: hour %d: %w", r.hour, err)
	}
	moves, err := r.scheduler.MigrationSchedule(r.states, r.placements, plan, r.network.Distance)
	if err != nil {
		return nil, err
	}
	elapsed := nowNanos() - start
	tick, err := r.finishTick(absHour, moves, elapsed)
	if err != nil {
		return nil, err
	}
	tick.Plan = plan
	tick.LPStats = plan.LPStats
	tick.Degraded = plan.Degraded
	return tick, nil
}

// Replay emulates the next hour by executing a previously recorded
// migration schedule without re-planning.  Given the same Start state and
// the same schedules in the same order, the fleet, disk and accounting
// state after each Replay is bit-identical to the Step that recorded it —
// this is how a daemon restores from a snapshot: replay the logged
// schedules (no LP work), then install the snapshotted basis and resume
// warm Steps.
func (r *Runner) Replay(moves []sched.Migration) (*Tick, error) {
	absHour := r.cfg.StartHour + r.hour
	if err := r.buildStates(absHour); err != nil {
		return nil, err
	}
	return r.finishTick(absHour, moves, 0)
}

// buildStates fills the scheduler's view of each datacenter in the Runner's
// scratch: forecast and PUE horizon windows are Block rows (forecasts
// scaled by any streamed weather update), the placements map points at the
// maintained (footprint-sorted) fleets so MigrationSchedule skips its
// copy-and-sort.
func (r *Runner) buildStates(absHour int) error {
	cfg := &r.cfg
	n := len(cfg.Datacenters)
	for i, dc := range cfg.Datacenters {
		forecast := r.windows.Row(i)
		if err := r.predictors[i].PredictInto(forecast, absHour%len(r.green[i])); err != nil {
			return err
		}
		if r.greenScale[i] != 1 {
			series.Scale(forecast, r.greenScale[i], forecast)
		}
		pues := r.windows.Row(n + i)
		fillWrapped(pues, r.pue[i], absHour)
		r.states[i] = sched.DatacenterState{
			Name:               dc.Name,
			CapacityKW:         dc.CapacityKW,
			CurrentLoadKW:      r.loadKWOf(i),
			GreenForecastKW:    forecast,
			PUE:                pues,
			GridPriceUSDPerKWh: dc.Site.GridPriceUSDPerKWh,
		}
		r.placements[dc.Name] = r.fleets[i]
	}
	return nil
}

// finishTick executes a migration schedule and completes the hour:
// re-replication, disk dirtying, per-datacenter records, tick advance.
func (r *Runner) finishTick(absHour int, moves []sched.Migration, elapsed int64) (*Tick, error) {
	cfg := &r.cfg
	hour := r.hour
	migrations, err := r.executeMoves(moves)
	if err != nil {
		return nil, err
	}

	// Background GDFS re-replication catches the destinations up.
	r.cluster.ReplicateOnce()

	// Simulate the hour: VMs dirty disk blocks at their home site.
	for vi := range cfg.VMs {
		machine := &cfg.VMs[vi]
		fi := r.files[vi]
		client := r.clients[r.home[vi]]
		dirtyBlocks := int(machine.DiskDirtyMBPerHour*(1<<20)/float64(fi.BlockSize)) + 1
		for b := 0; b < dirtyBlocks && b < len(fi.Blocks); b++ {
			block := (hour*dirtyBlocks + b) % len(fi.Blocks)
			if err := client.DirtyBlock(fi, block); err != nil {
				return nil, err
			}
		}
	}

	// Record the hour, one record per datacenter.
	tick := &r.tick
	*tick = Tick{Index: hour, AbsHour: absHour, Records: tick.Records[:0],
		Moves: moves, Migrations: migrations, SchedulerNanos: elapsed}
	for i, dc := range cfg.Datacenters {
		loadKW := r.loadKWOf(i)
		pue := r.pue[i][absHour%len(r.pue[i])]
		overheadKW := loadKW * (pue - 1)
		greenKW := r.green[i][absHour%len(r.green[i])]
		if r.greenScale[i] != 1 {
			greenKW *= r.greenScale[i]
		}
		migKW := r.migEnergy[i] // one-hour epochs: kWh == kW
		demandKW := loadKW + overheadKW + migKW
		brownKW := demandKW - greenKW
		if brownKW < 0 {
			brownKW = 0
		}
		tick.Records = append(tick.Records, HourRecord{
			Hour:           hour,
			Datacenter:     dc.Name,
			GreenKW:        greenKW,
			LoadKW:         loadKW,
			PUEOverheadKW:  overheadKW,
			MigrationKW:    migKW,
			BrownKW:        brownKW,
			VMCount:        len(r.fleets[i]),
			MigrationsIn:   r.migIn[i],
			MigrationsOut:  r.migOut[i],
			MigratedBytes:  r.migBytes[i],
			SchedulerNanos: elapsed,
		})
	}
	r.hour++
	return tick, nil
}

// fillWrapped fills dst with src values starting at absolute hour `from`,
// wrapping around the year trace.
func fillWrapped(dst, src []float64, from int) {
	start := from % len(src)
	for filled := 0; filled < len(dst); {
		n := copy(dst[filled:], src[start:])
		filled += n
		start = (start + n) % len(src)
	}
}

// executeMoves runs one hour's migration schedule: move VMs between
// managers, ship the stale GDFS blocks, account the energy.  Moves are
// sharded by destination datacenter and the shards run concurrently (up to
// GOMAXPROCS workers); per-shard accumulators merged in destination order
// make the result bit-identical to sequential execution.  It fills
// r.migEnergy/migBytes/migIn/migOut, updates r.home and the per-datacenter
// fleets, and returns the number of migrations performed.
func (r *Runner) executeMoves(moves []sched.Migration) (int, error) {
	n := len(r.cfg.Datacenters)
	for i := 0; i < n; i++ {
		r.migEnergy[i] = 0
		r.migBytes[i] = 0
		r.migIn[i] = 0
		r.migOut[i] = 0
		sh := &r.shards[i]
		sh.moves = sh.moves[:0]
		sh.executed = sh.executed[:0]
		sh.failed = sh.failed[:0]
		sh.err = nil
	}
	if len(moves) == 0 {
		return 0, nil
	}
	// Shard by destination, preserving schedule order within each shard.
	for mi, mv := range moves {
		toIdx, okT := r.dcIndex[mv.To]
		_, okF := r.dcIndex[mv.From]
		if !okF || !okT {
			return 0, fmt.Errorf("emul: migration between unknown datacenters %s→%s", mv.From, mv.To)
		}
		r.shards[toIdx].moves = append(r.shards[toIdx].moves, mi)
	}

	workers := runtime.GOMAXPROCS(0)
	work := make(chan int, n)
	active := 0
	for i := 0; i < n; i++ {
		if len(r.shards[i].moves) > 0 {
			work <- i
			active++
		}
	}
	close(work)
	if workers > active {
		workers = active
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range work {
				r.runShard(si, moves)
			}
		}()
	}
	wg.Wait()

	// Deterministic merge in destination order, then sequential rollback
	// of the moves whose receiver was full.
	migrated := 0
	for si := 0; si < n; si++ {
		sh := &r.shards[si]
		if sh.err != nil {
			return 0, sh.err
		}
		if len(sh.moves) == 0 {
			continue
		}
		for d := 0; d < n; d++ {
			r.migEnergy[d] += sh.energy[d]
			r.migBytes[d] += sh.bytes[d]
			r.migIn[d] += sh.in[d]
			r.migOut[d] += sh.out[d]
		}
		migrated += len(sh.executed)
		for _, mi := range sh.failed {
			mv := &moves[mi]
			fromIdx := r.dcIndex[mv.From]
			if _, err := r.managers[fromIdx].Place(mv.VM); err != nil {
				return 0, fmt.Errorf("emul: lost VM %s: %v", mv.VM.ID, err)
			}
		}
	}

	// Apply the executed moves to the maintained fleets: compact the
	// donors first, then append-and-sort the receivers.
	clear(r.movedOut)
	for si := 0; si < n; si++ {
		for _, mi := range r.shards[si].executed {
			mv := &moves[mi]
			r.movedOut[mv.VM.ID] = struct{}{}
			r.home[r.vmIndex[mv.VM.ID]] = si
		}
	}
	for d := 0; d < n; d++ {
		if r.migOut[d] > 0 {
			kept := r.fleets[d][:0]
			for _, machine := range r.fleets[d] {
				if _, gone := r.movedOut[machine.ID]; !gone {
					kept = append(kept, machine)
				}
			}
			r.fleets[d] = kept
		}
	}
	for si := 0; si < n; si++ {
		for _, mi := range r.shards[si].executed {
			r.fleets[si] = append(r.fleets[si], moves[mi].VM)
		}
	}
	for d := 0; d < n; d++ {
		if r.migIn[d] > 0 {
			sortFleet(r.fleets[d])
		}
	}
	return migrated, nil
}

// runShard executes one destination's moves in schedule order.  It touches
// only shard-owned accumulators, the destination's manager (owned by this
// shard for the round), donor managers (Remove only, which is choice-free
// and commutative) and read-only GDFS metadata, so shards are data-race
// free and order-independent.
func (r *Runner) runShard(si int, moves []sched.Migration) {
	sh := &r.shards[si]
	for d := range sh.energy {
		sh.energy[d] = 0
		sh.bytes[d] = 0
		sh.in[d] = 0
		sh.out[d] = 0
	}
	for _, mi := range sh.moves {
		mv := &moves[mi]
		fromIdx := r.dcIndex[mv.From]
		machine, err := r.managers[fromIdx].Remove(mv.VM.ID)
		if err != nil {
			sh.err = err
			return
		}
		if _, err := r.managers[si].Place(machine); err != nil {
			// Receiver full: roll the move back after the join.
			sh.failed = append(sh.failed, mi)
			continue
		}
		pendingBytes, err := r.clients[fromIdx].PendingMigrationBytes(r.vmPaths[r.vmIndex[machine.ID]], gdfs.WorkerID(mv.To))
		if err != nil {
			sh.err = err
			return
		}
		result, err := migrate.Simulate(migrate.Plan{
			VM:          machine,
			From:        mv.From,
			To:          mv.To,
			DirtyDiskMB: float64(pendingBytes) / (1 << 20),
		}, r.network)
		if err != nil {
			sh.err = err
			return
		}
		// The conservative accounting charges the migration at both ends
		// for the whole epoch.
		sh.energy[fromIdx] += result.ConservativeEnergyKWh
		sh.energy[si] += result.ConservativeEnergyKWh
		sh.bytes[fromIdx] += int64(result.TransferredMB * (1 << 20))
		sh.in[si]++
		sh.out[fromIdx]++
		sh.executed = append(sh.executed, mi)
	}
}
