// Package nebula is the within-datacenter VM manager GreenNebula builds on —
// the stand-in for OpenNebula in the paper's architecture.  It tracks the
// physical machines of one datacenter, places VMs on them (first fit), and
// hands VMs over to the cross-datacenter migration machinery.
package nebula

import (
	"errors"
	"fmt"
	"sync"

	"greencloud/internal/vm"
)

// Host is one physical machine.
type Host struct {
	// ID identifies the host within its datacenter.
	ID string
	// VCPUs and MemoryMB are the host's capacities.
	VCPUs    int
	MemoryMB int
	// IdlePowerW and BusyPowerW bound the host's power draw; utilization
	// interpolates between them.
	IdlePowerW float64
	BusyPowerW float64
}

// DefaultHost mirrors the paper's servers (Dell R610: 4 cores, 6 GB RAM,
// 275 W peak, ~200 W at typical utilization).
func DefaultHost(id string) Host {
	return Host{ID: id, VCPUs: 4, MemoryMB: 6 * 1024, IdlePowerW: 120, BusyPowerW: 275}
}

// Errors returned by the manager.
var (
	ErrNoCapacity  = errors.New("nebula: no host has capacity for the VM")
	ErrUnknownVM   = errors.New("nebula: unknown VM")
	ErrDuplicateVM = errors.New("nebula: VM already placed")
)

// Datacenter manages the hosts and VM placement of one site.
type Datacenter struct {
	name string

	mu        sync.Mutex
	hosts     []Host
	placement map[string]string // VM ID → host ID
	vms       map[string]vm.VM
	hostUsage map[string]*usage
}

type usage struct {
	vcpus    int
	memoryMB int
}

// NewDatacenter returns a datacenter with the given hosts.
func NewDatacenter(name string, hosts []Host) *Datacenter {
	dc := &Datacenter{
		name:      name,
		hosts:     make([]Host, len(hosts)),
		placement: make(map[string]string),
		vms:       make(map[string]vm.VM),
		hostUsage: make(map[string]*usage, len(hosts)),
	}
	copy(dc.hosts, hosts)
	for _, h := range hosts {
		dc.hostUsage[h.ID] = &usage{}
	}
	return dc
}

// NewUniformDatacenter returns a datacenter with n identical default hosts.
func NewUniformDatacenter(name string, n int) *Datacenter {
	hosts := make([]Host, 0, n)
	for i := 0; i < n; i++ {
		hosts = append(hosts, DefaultHost(fmt.Sprintf("%s-host-%03d", name, i)))
	}
	return NewDatacenter(name, hosts)
}

// Place admits a VM onto the first host with enough spare vCPUs and memory.
func (dc *Datacenter) Place(machine vm.VM) (hostID string, err error) {
	if err := machine.Validate(); err != nil {
		return "", err
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, ok := dc.vms[machine.ID]; ok {
		return "", fmt.Errorf("%w: %s", ErrDuplicateVM, machine.ID)
	}
	for _, h := range dc.hosts {
		u := dc.hostUsage[h.ID]
		if u.vcpus+machine.VCPUs <= h.VCPUs && u.memoryMB+machine.MemoryMB <= h.MemoryMB {
			u.vcpus += machine.VCPUs
			u.memoryMB += machine.MemoryMB
			dc.placement[machine.ID] = h.ID
			dc.vms[machine.ID] = machine
			return h.ID, nil
		}
	}
	return "", fmt.Errorf("%w: %s in %s", ErrNoCapacity, machine.ID, dc.name)
}

// Remove evicts a VM (after it migrated away or terminated) and returns it.
func (dc *Datacenter) Remove(vmID string) (vm.VM, error) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	machine, ok := dc.vms[vmID]
	if !ok {
		return vm.VM{}, fmt.Errorf("%w: %s", ErrUnknownVM, vmID)
	}
	hostID := dc.placement[vmID]
	if u, ok := dc.hostUsage[hostID]; ok {
		u.vcpus -= machine.VCPUs
		u.memoryMB -= machine.MemoryMB
	}
	delete(dc.vms, vmID)
	delete(dc.placement, vmID)
	return machine, nil
}
