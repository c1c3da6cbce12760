package vm

import (
	"math"
	"testing"
)

func TestNewHPCVMMatchesPaperConfig(t *testing.T) {
	v := NewHPCVM("vm-1")
	if err := v.Validate(); err != nil {
		t.Fatalf("paper VM invalid: %v", err)
	}
	if v.VCPUs != 1 || v.MemoryMB != 512 || v.DiskMB != 5*1024 {
		t.Errorf("unexpected shape: %+v", v)
	}
	if v.PowerW != 30 {
		t.Errorf("power = %v, want 30 W", v.PowerW)
	}
	if v.DiskDirtyMBPerHour != 110 {
		t.Errorf("disk dirty rate = %v, want 110 MB/h", v.DiskDirtyMBPerHour)
	}
	if v.FootprintMB() != 512+5*1024 {
		t.Errorf("footprint = %v", v.FootprintMB())
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*VM)
	}{
		{"empty id", func(v *VM) { v.ID = "" }},
		{"no cpus", func(v *VM) { v.VCPUs = 0 }},
		{"no memory", func(v *VM) { v.MemoryMB = 0 }},
		{"no disk", func(v *VM) { v.DiskMB = 0 }},
		{"negative power", func(v *VM) { v.PowerW = -1 }},
		{"negative dirty rate", func(v *VM) { v.DiskDirtyMBPerHour = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewHPCVM("x")
			tc.mutate(&v)
			if err := v.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestFleetHelpers(t *testing.T) {
	fleet := NewHPCFleet("vm", 9)
	if len(fleet) != 9 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	// The paper's 9 × 30 W validation fleet.
	if got := fleet.TotalPowerW(); math.Abs(got-270) > 1e-9 {
		t.Errorf("TotalPowerW = %v, want 270", got)
	}
	names := map[string]bool{}
	for _, v := range fleet {
		if names[v.ID] {
			t.Fatalf("duplicate VM id %s", v.ID)
		}
		names[v.ID] = true
	}
}

func TestSortByFootprintAndSelectByPower(t *testing.T) {
	small := NewHPCVM("small")
	small.DiskMB = 1024
	big := NewHPCVM("big")
	big.DiskMB = 20 * 1024
	mid := NewHPCVM("mid")
	fleet := Fleet{big, small, mid}

	sorted := fleet.SortByFootprint()
	if sorted[0].ID != "small" || sorted[2].ID != "big" {
		t.Errorf("sort order: %v, %v, %v", sorted[0].ID, sorted[1].ID, sorted[2].ID)
	}
	// The original fleet must not be reordered.
	if fleet[0].ID != "big" {
		t.Error("SortByFootprint mutated its receiver")
	}
}
