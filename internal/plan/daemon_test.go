package plan

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"greencloud/internal/emul"
)

// testSpec is a small trace: short horizon keeps each tick's LP cheap so the
// full suite stays inside the daemon test budget.
func testSpec() TraceSpec {
	return TraceSpec{Sites: 60, Seed: 21, Datacenters: 3, VMs: 9, HorizonHours: 12}
}

// stripRecords zeroes the wall-clock field, the only nondeterminism in an
// HourRecord.
func stripRecords(recs []emul.HourRecord) []emul.HourRecord {
	out := append([]emul.HourRecord(nil), recs...)
	for i := range out {
		out[i].SchedulerNanos = 0
	}
	return out
}

// batchRecords runs the same trace through the batch emul.Runner and returns
// the per-tick records (nanos stripped): the reference the daemon must match
// bit-for-bit.
func batchRecords(t *testing.T, spec TraceSpec, hours int) [][]emul.HourRecord {
	t.Helper()
	cfg, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := emul.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	out := make([][]emul.HourRecord, 0, hours)
	for i := 0; i < hours; i++ {
		tick, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stripRecords(tick.Records))
	}
	return out
}

// TestDaemonMatchesBatch is the tentpole's core acceptance: a 24-tick
// streamed run re-plans warm on every tick (ColdFallbacks == 0 across the
// whole lifetime, including the first cold-by-construction solve, which by
// contract does not count) and produces records bit-identical to a batch
// emul.Runner over the same trace.
func TestDaemonMatchesBatch(t *testing.T) {
	const hours = 24
	spec := testSpec()
	want := batchRecords(t, spec, hours)

	d, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hours; i++ {
		view, err := d.Tick(TickRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if view.Tick != i+1 {
			t.Fatalf("tick %d: view.Tick = %d", i, view.Tick)
		}
		got := stripRecords(view.LastRecords)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("tick %d record %d differs:\n  daemon=%+v\n  batch =%+v", i, j, got[j], want[i][j])
			}
		}
		if view.Degraded {
			t.Fatalf("tick %d degraded", i)
		}
		if len(view.TargetLoadKW) != len(view.Datacenters) {
			t.Fatalf("tick %d: %d targets for %d datacenters", i, len(view.TargetLoadKW), len(view.Datacenters))
		}
	}
	view := d.PlanView()
	if view.CumLPStats.ColdFallbacks != 0 {
		t.Fatalf("streamed run had %d cold fallbacks, want 0", view.CumLPStats.ColdFallbacks)
	}
	if view.CumLPStats.Pivots == 0 {
		t.Fatal("no LP work recorded")
	}
	if view.Totals.DemandKWh <= 0 || view.Totals.GreenKWh <= 0 {
		t.Fatalf("implausible totals: %+v", view.Totals)
	}
	if view.Resumed {
		t.Fatal("fresh daemon claims it resumed")
	}
}

// requireSameView fails unless a restored view equals the view the crashed
// daemon last served, field for field — LastRecords with their scheduler
// nanos, CumLPStats, TargetLoadKW, GreenScale, Totals — apart from the
// Resumed/WarmResume flags that only a restore sets.
func requireSameView(t *testing.T, got, want PlanView) {
	t.Helper()
	got.Resumed, got.WarmResume = want.Resumed, want.WarmResume
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored view differs from the crashed daemon's:\n  restored=%+v\n  crashed =%+v", got, want)
	}
}

// requireSameTick fails unless a tick of a resumed daemon matches the
// uninterrupted reference's tick bit for bit (wall-clock fields aside) —
// including the cumulative LP work, so a first post-restart solve that
// quietly ran cold instead of warm from the journaled basis fails here.
func requireSameTick(t *testing.T, i int, got, want PlanView) {
	t.Helper()
	if got.Tick != want.Tick || got.LastLPStats.ColdFallbacks != 0 {
		t.Fatalf("tick %d: at %d with %d cold fallbacks, want %d warm", i, got.Tick, got.LastLPStats.ColdFallbacks, want.Tick)
	}
	g, w := stripRecords(got.LastRecords), stripRecords(want.LastRecords)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("tick %d records differ:\n  resumed=%+v\n  ref    =%+v", i, g, w)
	}
	gs, ws := got.CumLPStats, want.CumLPStats
	if got.Totals != want.Totals || gs != ws || !reflect.DeepEqual(got.GreenScale, want.GreenScale) {
		t.Fatalf("tick %d: totals %+v / stats %+v / scales %v, want %+v / %+v / %v",
			i, got.Totals, gs, got.GreenScale, want.Totals, ws, want.GreenScale)
	}
}

// scaleStream is a tick stream whose streamed weather changes several
// times: datacenters scaled down and up, one restored to 1.
func scaleStream(t testing.TB, spec TraceSpec, n int) []TickRequest {
	t.Helper()
	cfg, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := cfg.Datacenters[0].Name, cfg.Datacenters[1].Name, cfg.Datacenters[2].Name
	out := make([]TickRequest, n)
	for i, scales := range []map[string]float64{
		1: {a: 0.3},
		3: {b: 1.7, c: 0.5},
		5: {a: 1, c: 0.1},
		6: {b: 0.8},
		9: {c: 1.2},
	} {
		if i < n {
			out[i].GreenScale = scales
		}
	}
	return out
}

// runStream ticks d through reqs and returns every published view.
func runStream(t *testing.T, d *Daemon, reqs []TickRequest) []PlanView {
	t.Helper()
	views := make([]PlanView, 0, len(reqs))
	for _, req := range reqs {
		v, err := d.Tick(req)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	return views
}

// crashAndResume runs reqs[:split] on a journaled daemon, drops it on the
// floor, restarts from the journal and checks the restart: warm, at split,
// serving exactly the crashed daemon's last view.  Ticking on through
// reqs[split:] must then match ref, an uninterrupted daemon's views.
func crashAndResume(t *testing.T, spec TraceSpec, reqs []TickRequest, split int, ref []PlanView) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "plan.snap")
	d1, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	crashed := runStream(t, d1, reqs[:split])
	if v := d1.PlanView(); v.SnapshotError != "" {
		t.Fatalf("journal append failed: %s", v.SnapshotError)
	}

	d2, err := New(Config{Trace: spec, SnapshotPath: snap, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if resumed, warm := d2.Resumed(); !resumed || !warm {
		t.Fatalf("resumed=%v warm=%v, want true/true", resumed, warm)
	}
	requireSameView(t, d2.PlanView(), crashed[split-1])
	for i, v := range runStream(t, d2, reqs[split:]) {
		requireSameTick(t, split+i, v, ref[split+i])
	}
	if final := d2.PlanView(); final.CumLPStats.ColdFallbacks != 0 {
		t.Fatalf("resumed daemon had %d cold fallbacks, want 0", final.CumLPStats.ColdFallbacks)
	}
}

// TestDaemonSnapshotResume is the other half of the acceptance: kill a
// daemon mid-stream, restart it from its journal, and the resumed daemon
// (a) reports a warm resume, (b) serves exactly the crashed daemon's last
// /plan, (c) continues the tick stream bit-identically to a daemon that was
// never stopped, and (d) never falls back cold.
func TestDaemonSnapshotResume(t *testing.T) {
	const hours, split = 24, 12
	spec := testSpec()
	reqs := make([]TickRequest, hours)
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	crashAndResume(t, spec, reqs, split, runStream(t, ref, reqs))
}

// TestDaemonSnapshotWithScales: streamed weather survives the crash — each
// record's scale changes are replayed in order, so the restored view and
// the continued stream both match a daemon fed the same updates without
// stopping, whether the crash comes before, between or after changes.
func TestDaemonSnapshotWithScales(t *testing.T) {
	const hours = 12
	spec := testSpec()
	reqs := scaleStream(t, spec, hours)
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	refViews := runStream(t, ref, reqs)
	if refViews[8].GreenScale == nil {
		t.Fatal("scale stream left no scale in effect")
	}
	for _, split := range []int{2, 4, 7, 10} {
		t.Run(fmt.Sprintf("crash-at-%d", split), func(t *testing.T) {
			crashAndResume(t, spec, reqs, split, refViews)
		})
	}
}

// TestDaemonFleetResume pins resume at fleet scale, where every replayed
// record runs a 9,600-copy GDFS round: the planner-fleet trace (4
// datacenters × 200 VMs, 3,200 blocks) with a green-scale change every
// eighth tick, the stream perfbench feeds it.  After 64 ticks the daemon
// is closed and restored; the restored view must equal the closed
// daemon's, and the next 8 ticks must match an uninterrupted daemon's bit
// for bit.
func TestDaemonFleetResume(t *testing.T) {
	const ticks, more = 64, 8
	spec := TraceSpec{Datacenters: 4, VMs: 200}
	cfg, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	scales := []float64{0.9, 1.1, 0.95, 1.05, 1}
	reqs := make([]TickRequest, ticks+more)
	for i := 0; i < len(reqs); i += 8 {
		k := i / 8
		reqs[i].GreenScale = map[string]float64{cfg.Datacenters[k%len(cfg.Datacenters)].Name: scales[k%len(scales)]}
	}
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	refViews := runStream(t, ref, reqs)

	snap := filepath.Join(t.TempDir(), "plan.snap")
	d1, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	closed := runStream(t, d1, reqs[:ticks])[ticks-1]
	if closed.SnapshotError != "" {
		t.Fatalf("journal append failed: %s", closed.SnapshotError)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Trace: spec, SnapshotPath: snap, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	restored := d2.PlanView()
	if !restored.Resumed || !restored.WarmResume || restored.Tick != ticks || restored.Totals != closed.Totals {
		t.Fatalf("restored tick %d resumed=%v warm=%v totals %+v, want tick %d resumed warm with %+v",
			restored.Tick, restored.Resumed, restored.WarmResume, restored.Totals, ticks, closed.Totals)
	}
	requireSameView(t, restored, closed)
	for i, v := range runStream(t, d2, reqs[ticks:]) {
		requireSameTick(t, ticks+i, v, refViews[ticks+i])
	}
}

// recordEnds parses a journal's frames and returns the offset just past
// the header and past every whole record.
func recordEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		t.Fatal("journal has no header")
	}
	ends := []int{nl + 1}
	for off := nl + 1; off+recordFrameBytes <= len(raw); {
		off += recordFrameBytes + int(binary.LittleEndian.Uint32(raw[off:]))
		if off > len(raw) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// TestDaemonSnapshotCorruption pins the journal's failure semantics.  A
// journal refused as a unit — empty, garbage, a damaged or short header, a
// wrong magic, the old GNPS1 format, another trace's digest — is logged,
// replaced by a fresh journal and the daemon starts cold.  A torn tail — a
// record cut short or failing its checksum — is logged and truncated, and
// the daemon resumes warm at the last whole record, from where the stream
// continues bit-identically to an uninterrupted daemon.  New never errors.
func TestDaemonSnapshotCorruption(t *testing.T) {
	const hours, written = 9, 6
	spec := testSpec()
	reqs := scaleStream(t, spec, hours)
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	refViews := runStream(t, ref, reqs)

	snap := filepath.Join(t.TempDir(), "plan.snap")
	d1, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	views := runStream(t, d1, reqs[:written])
	d1.Close()
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, good)
	if len(ends) != written+1 || ends[written] != len(good) {
		t.Fatalf("journal of %d bytes has record ends %v, want %d records", len(good), ends, written)
	}
	header := good[:ends[0]]
	otherSpec := spec
	otherSpec.VMs = 12

	cold := map[string][]byte{
		"empty":          {},
		"garbage":        []byte("not a snapshot at all\n"),
		"wrong magic":    append([]byte("XXXXX"), good[5:]...),
		"short header":   []byte("GNPJ1\n"),
		"damaged header": append(append([]byte(nil), good[:ends[0]-3]...), good[ends[0]:]...),
		"old format":     []byte("GNPS1 0123456789abcdef 2\n{}"),
		"foreign trace":  append([]byte("GNPJ1 "+otherSpec.Digest()+"\n"), good[ends[0]:]...),
	}
	for name, raw := range cold {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			logged := 0
			d, err := New(Config{Trace: spec, SnapshotPath: path,
				Logf: func(string, ...any) { logged++ }})
			if err != nil {
				t.Fatalf("New must fall back cold, got error: %v", err)
			}
			defer d.Close()
			if logged == 0 {
				t.Error("rejection was not logged")
			}
			if resumed, _ := d.Resumed(); resumed {
				t.Fatal("daemon claims it resumed from a refused journal")
			}
			if v := d.PlanView(); v.Tick != 0 || v.GreenScale != nil {
				t.Fatalf("cold start at tick %d with scales %v, want tick 0, none", v.Tick, v.GreenScale)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, header) {
				t.Fatalf("refused journal not replaced by a fresh one: %q", got)
			}
			// The cold daemon plans from hour zero like an uninterrupted one.
			for i, v := range runStream(t, d, reqs[:2]) {
				requireSameTick(t, i, v, refViews[i])
			}
		})
	}

	bitFlipped := append([]byte(nil), good...)
	bitFlipped[len(good)-8] ^= 0x40
	torn := map[string]struct {
		raw    []byte
		resume int
	}{
		"truncated":        {good[:(ends[3]+ends[4])/2], 3},
		"truncated frame":  {good[:ends[written-1]+5], written - 1},
		"bit-flipped":      {bitFlipped, written - 1},
		"flipped mid-file": {flipAt(good, ends[2]+recordFrameBytes+2), 2},
		"trailing garbage": {append(append([]byte(nil), good...), "garbage"...), written},
	}
	for name, tc := range torn {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.snap")
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			logged := 0
			d, err := New(Config{Trace: spec, SnapshotPath: path,
				Logf: func(string, ...any) { logged++ }})
			if err != nil {
				t.Fatalf("New must resume at the prefix, got error: %v", err)
			}
			defer d.Close()
			if logged == 0 {
				t.Error("torn tail was not logged")
			}
			if resumed, warm := d.Resumed(); !resumed || !warm {
				t.Fatalf("resumed=%v warm=%v, want a warm resume at the prefix", resumed, warm)
			}
			requireSameView(t, d.PlanView(), views[tc.resume-1])
			if got, _ := os.ReadFile(path); !bytes.Equal(got, good[:ends[tc.resume]]) {
				t.Fatalf("torn tail not truncated to record %d: %d bytes, want %d", tc.resume, len(got), ends[tc.resume])
			}
			for i, v := range runStream(t, d, reqs[tc.resume:]) {
				requireSameTick(t, tc.resume+i, v, refViews[tc.resume+i])
			}
		})
	}
}

// flipAt returns a copy of raw with one bit flipped at pos.
func flipAt(raw []byte, pos int) []byte {
	out := append([]byte(nil), raw...)
	out[pos] ^= 0x01
	return out
}

// TestDaemonRejectedTickLeavesNoTrace: a tick request naming an unknown
// datacenter is rejected as a whole — the valid scales beside it are not
// applied — so the stream continues exactly as if it had never been sent,
// in memory and across a journal restart.
func TestDaemonRejectedTickLeavesNoTrace(t *testing.T) {
	spec := testSpec()
	reqs := make([]TickRequest, 4)
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	refViews := runStream(t, ref, reqs)

	snap := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, d, reqs[:2])
	bad := TickRequest{GreenScale: map[string]float64{d.names[0]: 0.2, d.names[1]: 0.4, "atlantis": 2}}
	for i := 0; i < 5; i++ { // map order is random: try several
		if _, err := d.Tick(bad); err == nil {
			t.Fatal("tick with an unknown datacenter accepted")
		}
	}
	if v := d.PlanView(); v.Tick != 2 || v.GreenScale != nil {
		t.Fatalf("rejected tick left tick %d, scales %v", v.Tick, v.GreenScale)
	}
	for i, v := range runStream(t, d, reqs[2:3]) {
		requireSameTick(t, 2+i, v, refViews[2+i])
	}
	d.Close()
	r, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, v := range runStream(t, r, reqs[3:]) {
		requireSameTick(t, 3+i, v, refViews[3+i])
	}
}

// TestDaemonViewOwnsNames: a caller editing the datacenter names of a view
// Tick returned reaches neither the daemon's served view nor the names its
// journal decoding and replay map through.
func TestDaemonViewOwnsNames(t *testing.T) {
	spec := testSpec()
	snap := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	reqs := scaleStream(t, spec, 4)
	v, err := d.Tick(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), v.Datacenters...)
	for i := range v.Datacenters {
		v.Datacenters[i] = "edited"
	}
	if got := d.PlanView().Datacenters; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(d.names, want) {
		t.Fatalf("editing a returned view reached the daemon: served %v, names %v, want %v", got, d.names, want)
	}
	runStream(t, d, reqs[1:])
	crashed := d.PlanView()
	d.Close()
	r, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameView(t, r.PlanView(), crashed)
}

// TestDaemonShutdown: a cancelled context refuses ticks and what-ifs with
// ErrShuttingDown — the clean-shutdown contract.
func TestDaemonShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d, err := New(Config{Trace: testSpec(), Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(TickRequest{}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := d.Tick(TickRequest{}); err == nil {
		t.Fatal("tick accepted after shutdown")
	}
	if _, err := d.WhatIf(WhatIfRequest{}); err == nil {
		t.Fatal("what-if accepted after shutdown")
	}
}
