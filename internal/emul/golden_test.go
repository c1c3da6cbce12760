package emul

import (
	"math"
	"testing"
)

// goldenDatacenters is the datacenter order of testConfig's trace rows.
var goldenDatacenters = [3]string{"desert-0001", "desert-0008", "desert-0002"}

// goldenHours holds, per hour and per datacenter in goldenDatacenters
// order, {VMCount, MigrationsIn, MigrationsOut, MigratedBytes} of
// Run(testConfig(t, 24)).  MigratedBytes includes the stale GDFS blocks each
// move ships, so the table pins the write-invalidate bookkeeping as well as
// the schedule.
var goldenHours = [24][3][4]int64{
	{{9, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},          // hour 0
	{{9, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},          // hour 1
	{{9, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},          // hour 2
	{{9, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},          // hour 3
	{{0, 0, 9, 5438451330}, {0, 0, 0, 0}, {9, 9, 0, 0}}, // hour 4
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 5
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 6
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 7
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 8
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 9
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 10
	{{0, 0, 0, 0}, {0, 0, 0, 0}, {9, 0, 0, 0}},          // hour 11
	{{0, 0, 0, 0}, {6, 6, 0, 0}, {3, 0, 6, 3625634220}}, // hour 12
	{{0, 0, 0, 0}, {8, 2, 0, 0}, {1, 0, 2, 1208544740}}, // hour 13
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 14
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 15
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 16
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 17
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 18
	{{0, 0, 0, 0}, {8, 0, 0, 0}, {1, 0, 0, 0}},          // hour 19
	{{5, 5, 0, 0}, {3, 0, 5, 3021361850}, {1, 0, 0, 0}}, // hour 20
	{{8, 3, 0, 0}, {0, 0, 3, 1812817110}, {1, 0, 0, 0}}, // hour 21
	{{8, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}},          // hour 22
	{{8, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}},          // hour 23
}

// TestGoldenDay pins a 24-hour emulation to values recorded before the GDFS
// payload plane was removed: the schedule and migrated bytes exactly, the
// energy totals to 1e-9 relative.
func TestGoldenDay(t *testing.T) {
	res, err := Run(testConfig(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 25 {
		t.Errorf("Migrations = %d, want 25", res.Migrations)
	}
	if len(res.Trace) != 24*3 {
		t.Fatalf("trace has %d rows, want %d", len(res.Trace), 24*3)
	}
	for i, rec := range res.Trace {
		h, d := i/3, i%3
		want := goldenHours[h][d]
		got := [4]int64{int64(rec.VMCount), int64(rec.MigrationsIn), int64(rec.MigrationsOut), rec.MigratedBytes}
		if rec.Hour != h || rec.Datacenter != goldenDatacenters[d] || got != want {
			t.Errorf("row %d (hour %d, %s): {VMs, in, out, bytes} = %v, want hour %d, %s: %v",
				i, rec.Hour, rec.Datacenter, got, h, goldenDatacenters[d], want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"TotalGreenKWh", res.TotalGreenKWh, 8.41440131669961},
		{"TotalBrownKWh", res.TotalBrownKWh, 0.7439869514233527},
		{"TotalDemandKWh", res.TotalDemandKWh, 9.158388268122962},
		{"TotalMigrationKWh", res.TotalMigrationKWh, 1.5},
		{"GreenFraction", res.GreenFraction, 0.9187644234288579},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
