package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"greencloud/internal/emul"
	"greencloud/internal/location"
	"greencloud/internal/lp"
)

// Config configures a Daemon.
type Config struct {
	// Trace is the emulated trace the daemon plans against.
	Trace TraceSpec
	// SnapshotPath, when non-empty, is the daemon's tick journal: New
	// resumes from it, and every tick appends one record to it (see
	// journal.go for the format).
	SnapshotPath string
	// Ctx, when non-nil, is the daemon's base context: once cancelled the
	// daemon refuses new ticks and what-if queries, the clean-shutdown
	// contract a serving process needs (the PR 6 plumbing bounds the
	// in-flight solve via the trace's LP timeout).
	Ctx context.Context
	// Logf, when non-nil, receives operational log lines (journal
	// rejections, torn tails, persistence failures).  The default
	// discards them.
	Logf func(format string, args ...any)
}

// Totals is the cumulative accounting across all applied ticks.
type Totals struct {
	GreenKWh     float64 `json:"green_kwh"`
	BrownKWh     float64 `json:"brown_kwh"`
	DemandKWh    float64 `json:"demand_kwh"`
	MigrationKWh float64 `json:"migration_kwh"`
	Migrations   int     `json:"migrations"`
}

// PlanView is the daemon's serving state: what GET /plan returns, and what
// a restarted daemon rebuilds from its journal to serve the same answer.  All
// fields are value copies — a PlanView never aliases runner scratch.
type PlanView struct {
	// Tick is the number of ticks applied since the trace began (survives
	// restarts).  AbsHour is the last applied trace hour.
	Tick    int `json:"tick"`
	AbsHour int `json:"abs_hour"`
	// Datacenters names the sites in configuration order; TargetLoadKW is
	// the current plan's first-hour load split in the same order.
	Datacenters  []string  `json:"datacenters"`
	TargetLoadKW []float64 `json:"target_load_kw"`
	// PlanBrownKWh and MigratedKW summarize the current partition plan;
	// Degraded marks a static-fallback plan (solver failure or timeout).
	PlanBrownKWh float64 `json:"plan_brown_kwh"`
	MigratedKW   float64 `json:"migrated_kw"`
	Degraded     bool    `json:"degraded"`
	// LastRecords is the last tick's per-datacenter trace.
	LastRecords []emul.HourRecord `json:"last_records"`
	// Totals accumulates over all ticks, exactly like a batch
	// emul.Result over the same trace.
	Totals Totals `json:"totals"`
	// LastLPStats is the last tick's partition-LP work; CumLPStats
	// accumulates across ticks.  CumLPStats.ColdFallbacks stays 0 for a
	// healthy warm daemon — including across a snapshot resume.
	LastLPStats lp.Stats `json:"last_lp_stats"`
	CumLPStats  lp.Stats `json:"cum_lp_stats"`
	// GreenScale holds the streamed weather adjustments currently in
	// effect (absent names are at scale 1).
	GreenScale map[string]float64 `json:"green_scale,omitempty"`
	// Resumed is true when this daemon restored its state from a
	// snapshot; WarmResume additionally means the snapshot carried a
	// usable basis, so the first post-restart solve starts warm.
	Resumed    bool `json:"resumed"`
	WarmResume bool `json:"warm_resume"`
	// SnapshotError reports a failed snapshot write (the daemon keeps
	// serving; persistence is degraded until a write succeeds).
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// TickRequest is the body of POST /tick: feed the next trace hour, with
// optional streamed weather updates applied before planning.
type TickRequest struct {
	// GreenScale scales the named datacenters' green production (realized
	// and forecast) from this tick on; 1 restores the trace.
	GreenScale map[string]float64 `json:"green_scale,omitempty"`
}

// Daemon is the continuous planner.  It owns one emul.Runner (the trace,
// fleet and warm partition LP) and serializes ticks; the serving state is a
// read-mostly PlanView behind an RWMutex, so GET /plan never waits on a
// solve.  Create one with New, wire Handler into an http.Server.
type Daemon struct {
	cfg     Config
	ctx     context.Context
	logf    func(string, ...any)
	trace   emul.Config
	catalog *location.Catalog
	names   []string
	dcIndex map[string]int
	vmIndex map[string]int

	// tickMu serializes the tick path (runner stepping + journal
	// appends); mu guards the serving state swapped in at the end of each
	// tick.  Lock order: tickMu before mu.
	tickMu sync.Mutex
	runner *emul.Runner
	// scale is the green scale in effect per datacenter; journaled is the
	// scale as of the last journal record, so each record carries only
	// the changes.
	scale, journaled []float64
	changes          []scaleChange
	sum              tickSummary
	journal          *journal

	mu   sync.RWMutex
	view PlanView

	sessions sessionStore
}

// Errors returned by the daemon.
var (
	// ErrShuttingDown rejects work arriving after the daemon's context
	// was cancelled.
	ErrShuttingDown = errors.New("plan: daemon is shutting down")
)

// New builds a daemon for the configured trace.  If Config.SnapshotPath
// names a journal of the same trace, the daemon resumes from it: each
// record's scale changes and migration schedule are replayed against a
// fresh trace start (no LP work), the serving view is rebuilt by folding
// the replayed ticks, and the last record's basis is installed — so the
// first post-restart solve is warm and the tick stream continues
// bit-identically to a daemon that was never stopped.  A torn tail is
// truncated to the last whole record; a journal that is empty, damaged,
// of the old GNPS1 format or of another trace is logged and replaced, and
// the daemon starts cold.  New fails only if the file cannot be opened,
// read or written.
func New(cfg Config) (*Daemon, error) {
	traceCfg, cat, err := cfg.Trace.Build()
	if err != nil {
		return nil, err
	}
	runner, err := emul.NewRunner(traceCfg)
	if err != nil {
		return nil, err
	}
	names := runner.Datacenters()
	d := &Daemon{
		cfg:       cfg,
		ctx:       cfg.Ctx,
		logf:      cfg.Logf,
		trace:     traceCfg,
		catalog:   cat,
		runner:    runner,
		names:     names,
		dcIndex:   make(map[string]int, len(names)),
		vmIndex:   make(map[string]int, len(traceCfg.VMs)),
		scale:     make([]float64, len(names)),
		journaled: make([]float64, len(names)),
	}
	if d.ctx == nil {
		d.ctx = context.Background()
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	for i, name := range names {
		d.dcIndex[name] = i
	}
	for i, machine := range traceCfg.VMs {
		d.vmIndex[machine.ID] = i
	}
	d.sessions.init(d)

	if err := d.coldStart(); err != nil {
		return nil, err
	}
	if cfg.SnapshotPath != "" {
		if err := d.openJournal(cfg.SnapshotPath); err != nil {
			return nil, fmt.Errorf("plan: journal %s: %w", cfg.SnapshotPath, err)
		}
	}
	return d, nil
}

// coldStart resets the daemon to the trace beginning: runner restarted with
// every green scale back at 1, no warm basis, an empty serving view.
func (d *Daemon) coldStart() error {
	for i, name := range d.names {
		if err := d.runner.SetGreenScale(name, 1); err != nil {
			return err
		}
		d.scale[i], d.journaled[i] = 1, 1
	}
	if err := d.runner.Start(); err != nil {
		return err
	}
	// The views own their names: d.names drives journal decoding and
	// replay, so a caller editing a returned view must not reach it.
	d.view = PlanView{Datacenters: append([]string(nil), d.names...)}
	return nil
}

// Close closes the journal.  The daemon must not tick afterwards.
func (d *Daemon) Close() error {
	d.tickMu.Lock()
	defer d.tickMu.Unlock()
	if d.journal == nil {
		return nil
	}
	err := d.journal.f.Close()
	d.journal = nil
	return err
}

// PlanView returns a copy of the current serving state.
func (d *Daemon) PlanView() PlanView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return copyView(d.view)
}

// Resumed reports whether the daemon restored from a snapshot, and whether
// the restore installed a warm basis.
func (d *Daemon) Resumed() (resumed, warm bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.view.Resumed, d.view.WarmResume
}

// Tick applies the next trace hour: ingest the request's streamed updates,
// re-plan incrementally (warm SolveFrom on the structure-cached partition
// LP), execute the resulting migration schedule, append the tick to the
// journal and publish the new serving state, a copy of which is returned.
func (d *Daemon) Tick(req TickRequest) (PlanView, error) {
	if err := d.ctx.Err(); err != nil {
		return PlanView{}, fmt.Errorf("%w: %v", ErrShuttingDown, err)
	}
	d.tickMu.Lock()
	defer d.tickMu.Unlock()

	for name, scale := range req.GreenScale {
		if err := d.runner.SetGreenScale(name, scale); err != nil {
			// All or nothing: put back the scales already applied (each
			// was accepted before, so restoring it cannot fail).
			for i, s := range d.scale {
				_ = d.runner.SetGreenScale(d.names[i], s)
			}
			return PlanView{}, err
		}
	}
	for name, scale := range req.GreenScale {
		d.scale[d.dcIndex[name]] = scale
	}

	tick, err := d.runner.Step()
	if err != nil {
		return PlanView{}, err
	}

	d.changes = d.changes[:0]
	for i, s := range d.scale {
		if s != d.journaled[i] {
			d.changes = append(d.changes, scaleChange{dc: i, scale: s})
			d.journaled[i] = s
		}
	}
	sum := &d.sum
	sum.stats, sum.nanos, sum.degraded = tick.LPStats, tick.SchedulerNanos, tick.Degraded
	sum.brownKWh, sum.migratedKW = tick.Plan.BrownKWh, tick.Plan.MigratedKW
	sum.targetKW = sum.targetKW[:0]
	for _, row := range tick.Plan.LoadKW {
		kw := 0.0
		if len(row) > 0 {
			kw = row[0]
		}
		sum.targetKW = append(sum.targetKW, kw)
	}

	var persistErr error
	if j := d.journal; j != nil {
		j.pending, persistErr = d.appendRecord(j.pending, tick, d.changes, sum, d.runner.WarmBasis())
		if err := j.flush(); err != nil {
			persistErr = err
		}
		if persistErr != nil {
			d.logf("plannerd: snapshot append failed: %v", persistErr)
		}
	}

	d.mu.Lock()
	next := d.view
	// Published views are immutable: fold into fresh slices.
	next.LastRecords, next.TargetLoadKW = nil, nil
	foldTick(&next, tick, sum)
	if len(d.changes) > 0 {
		next.GreenScale = d.scaleMap()
	}
	next.SnapshotError = ""
	if persistErr != nil {
		next.SnapshotError = persistErr.Error()
	}
	d.view = next
	d.mu.Unlock()
	return copyView(next), nil
}

// foldTick folds one tick into the serving view — the accounting a live
// Tick and a journal restore share, so a restored view is the view the
// crashed daemon served.
func foldTick(v *PlanView, tick *emul.Tick, sum *tickSummary) {
	v.Tick++
	v.AbsHour = tick.AbsHour
	v.LastRecords = append(v.LastRecords[:0], tick.Records...)
	v.LastLPStats = sum.stats
	v.CumLPStats.Add(sum.stats)
	v.Degraded = sum.degraded
	v.TargetLoadKW = append(v.TargetLoadKW[:0], sum.targetKW...)
	v.PlanBrownKWh = sum.brownKWh
	v.MigratedKW = sum.migratedKW
	v.Totals.Migrations += tick.Migrations
	for i := range tick.Records {
		rec := &tick.Records[i]
		demandKW := rec.LoadKW + rec.PUEOverheadKW + rec.MigrationKW
		v.Totals.DemandKWh += demandKW
		v.Totals.BrownKWh += rec.BrownKW
		v.Totals.GreenKWh += demandKW - rec.BrownKW
		v.Totals.MigrationKWh += rec.MigrationKW
	}
}

// scaleMap is the serving form of the scales in effect: datacenters off
// scale 1, or nil.
func (d *Daemon) scaleMap() map[string]float64 {
	var m map[string]float64
	for i, s := range d.scale {
		if s != 1 {
			if m == nil {
				m = make(map[string]float64)
			}
			m[d.names[i]] = s
		}
	}
	return m
}

func copyView(v PlanView) PlanView {
	out := v
	out.Datacenters = append([]string(nil), v.Datacenters...)
	out.TargetLoadKW = append([]float64(nil), v.TargetLoadKW...)
	out.LastRecords = append([]emul.HourRecord(nil), v.LastRecords...)
	if v.GreenScale != nil {
		out.GreenScale = make(map[string]float64, len(v.GreenScale))
		for k, val := range v.GreenScale {
			out.GreenScale[k] = val
		}
	}
	return out
}
