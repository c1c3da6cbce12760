// Package vm models the virtual machines that GreenNebula manages: their
// resource footprint, their power draw, and the synthetic HPC workload the
// paper uses for its validation experiments (CPU-bound VMs that also dirty a
// steady stream of disk data).
package vm

import (
	"errors"
	"fmt"
	"sort"
)

// VM describes one virtual machine.
type VM struct {
	// ID uniquely identifies the VM.
	ID string
	// VCPUs is the number of virtual CPUs.
	VCPUs int
	// MemoryMB is the RAM size.
	MemoryMB int
	// DiskMB is the virtual disk size.
	DiskMB int
	// PowerW is the average power the VM adds to its host while running.
	PowerW float64
	// DiskDirtyMBPerHour is how much disk data the workload writes per
	// hour (the paper's synthetic app writes 110 MB/h).
	DiskDirtyMBPerHour float64
	// MemDirtyMBPerSecond is how fast the workload dirties memory pages,
	// which drives the pre-copy rounds of a live migration.
	MemDirtyMBPerSecond float64
}

// Validate reports an unusable VM description.
func (v VM) Validate() error {
	switch {
	case v.ID == "":
		return errors.New("vm: empty ID")
	case v.VCPUs <= 0:
		return fmt.Errorf("vm %s: need at least one vCPU", v.ID)
	case v.MemoryMB <= 0 || v.DiskMB <= 0:
		return fmt.Errorf("vm %s: memory and disk must be positive", v.ID)
	case v.PowerW < 0 || v.DiskDirtyMBPerHour < 0 || v.MemDirtyMBPerSecond < 0:
		return fmt.Errorf("vm %s: negative rates", v.ID)
	}
	return nil
}

// FootprintMB is the amount of state that must move in a migration if
// nothing has been pre-replicated: memory plus disk.
func (v VM) FootprintMB() float64 {
	return float64(v.MemoryMB + v.DiskMB)
}

// NewHPCVM returns a VM configured like the paper's validation workload:
// one vCPU, 512 MB of memory, a 5 GB disk, 30 W of power, a CPU-intensive
// synthetic application writing 110 MB of disk data per hour.
func NewHPCVM(id string) VM {
	return VM{
		ID:                  id,
		VCPUs:               1,
		MemoryMB:            512,
		DiskMB:              5 * 1024,
		PowerW:              30,
		DiskDirtyMBPerHour:  110,
		MemDirtyMBPerSecond: 0.03,
	}
}

// Fleet is a set of VMs.
type Fleet []VM

// NewHPCFleet returns n paper-style VMs named with the given prefix.
func NewHPCFleet(prefix string, n int) Fleet {
	out := make(Fleet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, NewHPCVM(fmt.Sprintf("%s-%03d", prefix, i)))
	}
	return out
}

// TotalPowerW is the aggregate power of the fleet.
func (f Fleet) TotalPowerW() float64 {
	total := 0.0
	for _, v := range f {
		total += v.PowerW
	}
	return total
}

// SortByFootprint orders the fleet smallest-footprint first, the order in
// which GreenNebula migrates VMs out of a donor datacenter.
func (f Fleet) SortByFootprint() Fleet {
	out := make(Fleet, len(f))
	copy(out, f)
	sort.Slice(out, func(i, j int) bool {
		if out[i].FootprintMB() != out[j].FootprintMB() {
			return out[i].FootprintMB() < out[j].FootprintMB()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// IsSortedByFootprint reports whether the fleet is already in the
// (footprint, ID) order SortByFootprint produces, letting callers that
// maintain sorted fleets skip the copy-and-sort.
func (f Fleet) IsSortedByFootprint() bool {
	for i := 1; i < len(f); i++ {
		a, b := f[i-1].FootprintMB(), f[i].FootprintMB()
		if a > b || (a == b && f[i-1].ID > f[i].ID) {
			return false
		}
	}
	return true
}
