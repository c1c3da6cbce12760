// Package migrate models live VM migration between datacenters over the
// emulated WAN: iterative pre-copy of memory, shipping of the disk blocks
// whose GDFS replica at the destination is stale, and the final
// stop-and-copy, which together give the data a migration moves.
//
// Energy is billed the paper's conservative way: the placement framework
// charges a migrated workload for a full epoch of energy at both the donor
// and the receiver (its migratePow term), and so does the emulation.
// GreenNebula's measured overhead is much smaller, because live migration
// finishes well within the hour; this package does not model it.
package migrate

import (
	"errors"
	"fmt"
	"math"

	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// Plan describes one migration to simulate.
type Plan struct {
	// VM is the machine to move.
	VM vm.VM
	// From and To are datacenter names known to the network.
	From string
	To   string
	// DirtyDiskMB is the amount of disk data whose replica at the
	// destination is stale and must be shipped (from GDFS metadata).  A
	// negative value means "the whole disk".
	DirtyDiskMB float64
}

// Result reports the outcome of a simulated migration.
type Result struct {
	// TransferredMB is the total data moved (memory rounds + disk).
	TransferredMB float64
	// ConservativeEnergyKWh is the paper's pessimistic accounting: the
	// VM's power billed at both ends for a full epoch (one hour).
	ConservativeEnergyKWh float64
}

// The pre-copy model: at most maxRounds pre-copy rounds, and the final
// stop-and-copy once the dirty set is below stopAndCopyMB.
const (
	maxRounds     = 8
	stopAndCopyMB = 16
)

// Errors returned by Simulate.
var (
	ErrSameDatacenter = errors.New("migrate: source and destination are the same datacenter")
	ErrNoBandwidth    = errors.New("migrate: link has no usable bandwidth")
)

// Simulate runs the pre-copy live-migration model for one VM over the given
// network and returns its cost.
func Simulate(plan Plan, network *wan.Network) (Result, error) {
	if err := plan.VM.Validate(); err != nil {
		return Result{}, err
	}
	if plan.From == plan.To {
		return Result{}, ErrSameDatacenter
	}
	link, err := network.LinkBetween(plan.From, plan.To)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	if link.BandwidthMbps <= 0 {
		return Result{}, ErrNoBandwidth
	}
	bandwidthMBps := link.BandwidthMbps / 8 // MB per second

	dirtyDisk := plan.DirtyDiskMB
	if dirtyDisk < 0 {
		dirtyDisk = float64(plan.VM.DiskMB)
	}

	// maxSeconds caps one round of a pathological non-converging
	// migration; a migration that long has failed anyway.
	const maxSeconds = 30 * 24 * 3600.0

	var res Result
	// Round 1: ship the whole memory image plus the stale disk blocks.
	toSend := float64(plan.VM.MemoryMB) + dirtyDisk
	for round := 1; ; round++ {
		res.TransferredMB += toSend
		seconds := math.Min(toSend/bandwidthMBps, maxSeconds)

		// While that round was in flight the application kept dirtying
		// memory (and a little disk).
		dirtied := plan.VM.MemDirtyMBPerSecond*seconds + plan.VM.DiskDirtyMBPerHour*seconds/3600
		if dirtied <= stopAndCopyMB || round >= maxRounds {
			// Stop-and-copy the final dirty set.
			res.TransferredMB += dirtied
			break
		}
		// Convergence guard: if the workload dirties faster than the link
		// drains, pre-copy cannot converge and the dirty set stops
		// shrinking; the maxRounds cap above ends the loop.
		toSend = dirtied
	}

	// Paper-style conservative accounting: a full one-hour epoch at both
	// ends.
	res.ConservativeEnergyKWh = plan.VM.PowerW / 1000
	return res, nil
}
