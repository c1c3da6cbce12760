package nebula

import (
	"errors"
	"testing"

	"greencloud/internal/vm"
)

func TestPlaceRemoveLifecycle(t *testing.T) {
	dc := NewUniformDatacenter("barcelona", 3)
	if dc.name != "barcelona" || len(dc.hosts) != 3 {
		t.Fatalf("unexpected datacenter: %s/%d", dc.name, len(dc.hosts))
	}
	v := vm.NewHPCVM("vm-0")
	host, err := dc.Place(v)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if host == "" {
		t.Fatal("empty host id")
	}
	if _, err := dc.Place(v); !errors.Is(err, ErrDuplicateVM) {
		t.Errorf("want ErrDuplicateVM, got %v", err)
	}
	if got := dc.placement["vm-0"]; got != host {
		t.Errorf("placed on %s, Place reported %s", got, host)
	}
	if len(dc.vms) != 1 {
		t.Errorf("%d VMs placed", len(dc.vms))
	}
	removed, err := dc.Remove("vm-0")
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if removed.ID != "vm-0" {
		t.Errorf("removed %s", removed.ID)
	}
	if _, err := dc.Remove("vm-0"); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("want ErrUnknownVM, got %v", err)
	}
	if _, ok := dc.placement["vm-0"]; ok {
		t.Error("removed VM still placed")
	}
	bad := vm.VM{}
	if _, err := dc.Place(bad); err == nil {
		t.Error("invalid VM should not be placeable")
	}
}

func TestPlacementRespectsHostCapacity(t *testing.T) {
	// One default host: 4 vCPUs and 6 GB of memory fit 4 paper VMs
	// (1 vCPU / 512 MB each); the 5th must be rejected.
	dc := NewUniformDatacenter("dc", 1)
	for i := 0; i < 4; i++ {
		if _, err := dc.Place(vm.NewHPCVM(vmName(i))); err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	if _, err := dc.Place(vm.NewHPCVM("vm-overflow")); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("want ErrNoCapacity, got %v", err)
	}
	// Removing one frees the slot again.
	if _, err := dc.Remove(vmName(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Place(vm.NewHPCVM("vm-retry")); err != nil {
		t.Errorf("placement after removal failed: %v", err)
	}
}

func vmName(i int) string { return string(rune('a'+i)) + "-vm" }

func TestSpareCapacityAndSpread(t *testing.T) {
	dc := NewUniformDatacenter("dc", 3)
	sample := vm.NewHPCVM("sample")
	if got := spareCapacity(dc, sample); got != 12 {
		t.Errorf("SpareCapacity = %d, want 12 (3 hosts × 4 VMs)", got)
	}
	fleet := vm.NewHPCFleet("vm", 9)
	for _, v := range fleet {
		if _, err := dc.Place(v); err != nil {
			t.Fatalf("Place(%s): %v", v.ID, err)
		}
	}
	if got := spareCapacity(dc, sample); got != 3 {
		t.Errorf("SpareCapacity after 9 placements = %d, want 3", got)
	}
	if len(dc.vms) != 9 {
		t.Errorf("%d VMs placed", len(dc.vms))
	}
}

// spareCapacity reports how many more VMs shaped like sample the
// datacenter's host usage could admit.
func spareCapacity(dc *Datacenter, sample vm.VM) int {
	count := 0
	for _, h := range dc.hosts {
		u := dc.hostUsage[h.ID]
		spare := min((h.VCPUs-u.vcpus)/sample.VCPUs, (h.MemoryMB-u.memoryMB)/sample.MemoryMB)
		if spare > 0 {
			count += spare
		}
	}
	return count
}

func TestCustomHosts(t *testing.T) {
	hosts := []Host{
		{ID: "big", VCPUs: 64, MemoryMB: 256 * 1024},
	}
	dc := NewDatacenter("custom", hosts)
	v := vm.NewHPCVM("vm-0")
	v.VCPUs = 32
	v.MemoryMB = 128 * 1024
	if _, err := dc.Place(v); err != nil {
		t.Fatalf("Place on big host: %v", err)
	}
	if len(dc.hosts) != 1 {
		t.Errorf("Hosts = %d", len(dc.hosts))
	}
}
