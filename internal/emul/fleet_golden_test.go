package emul_test

import (
	"testing"

	"greencloud/internal/emul"
	"greencloud/internal/plan"
)

// fleetHours is the length of the fleet-scale golden run: two days, so the
// load follows the sun around all four datacenters twice.
const fleetHours = 48

// fleetDatacenters is the datacenter order of the fleet trace's rows.
var fleetDatacenters = [4]string{"desert-0001", "desert-0008", "desert-0002", "desert-0007"}

// fleetMigratedBytes holds, per hour and per datacenter in fleetDatacenters
// order, the MigratedBytes of a 48-hour run of the planner-fleet trace
// (4 datacenters × 200 VMs, 3,200 GDFS blocks).  Each move ships the VM's
// memory plus the GDFS blocks whose replica at the destination is stale or
// missing, so the table pins the schedule and the write-invalidate
// bookkeeping at the scale the daemon runs it.  It does not pin
// re-replication: every hour dirties each VM's whole 64 MB disk window
// (110 MB/h in 4 MiB blocks), so a move always finds every block stale at
// its destination; the gdfs equivalence tests pin re-replication.  The
// values were recorded with the map-based GDFS master, before its metadata
// moved onto dense slices and replica bitmasks.
var fleetMigratedBytes = [fleetHours][4]int64{
	4:  {120250201630, 0, 0, 0},
	12: {0, 0, 90036583130, 0},
	13: {0, 0, 30213618500, 0},
	17: {0, 120250201630, 0, 0},
	28: {0, 0, 0, 120250201630},
	36: {0, 0, 93057944980, 0},
	37: {0, 0, 27192256650, 0},
	41: {0, 119645929260, 0, 0},
}

// TestGoldenFleet pins the fleet-scale emulation bit for bit: every hour's
// per-datacenter migrated bytes (all other hours migrate nothing) and the
// run's totals, recorded with the map-based GDFS master.
func TestGoldenFleet(t *testing.T) {
	cfg, _, err := plan.TraceSpec{Datacenters: 4, VMs: 200}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hours = fleetHours
	res, err := emul.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != fleetHours*len(fleetDatacenters) {
		t.Fatalf("trace has %d rows, want %d", len(res.Trace), fleetHours*len(fleetDatacenters))
	}
	for i, rec := range res.Trace {
		h, d := i/len(fleetDatacenters), i%len(fleetDatacenters)
		if want := fleetMigratedBytes[h][d]; rec.Hour != h || rec.Datacenter != fleetDatacenters[d] || rec.MigratedBytes != want {
			t.Errorf("row %d: hour %d, %s migrated %d bytes, want hour %d, %s: %d",
				i, rec.Hour, rec.Datacenter, rec.MigratedBytes, h, fleetDatacenters[d], want)
		}
	}
	if res.Migrations != 1193 {
		t.Errorf("Migrations = %d, want 1193", res.Migrations)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"TotalGreenKWh", res.TotalGreenKWh, 376.5474060136747},
		{"TotalBrownKWh", res.TotalBrownKWh, 31.652216507585123},
		{"TotalDemandKWh", res.TotalDemandKWh, 408.1996225212598},
		{"TotalMigrationKWh", res.TotalMigrationKWh, 71.58000000000001},
		{"GreenFraction", res.GreenFraction, 0.9224589765368129},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
