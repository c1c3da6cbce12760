// GDFS: using GreenNebula's distributed file system directly.
//
// This example builds a three-datacenter GDFS cluster, stores a VM disk
// image, shows how writes invalidate remote replicas and how
// re-replication repairs them, and measures how much data a migration to
// each datacenter would have to ship at any point in time.
package main

import (
	"fmt"
	"log"

	"greencloud/internal/gdfs"
)

func main() {
	master := gdfs.NewMaster(2)
	cluster := gdfs.NewCluster(master)
	workers := map[gdfs.WorkerID]*gdfs.MetaWorker{}
	for _, dc := range []gdfs.WorkerID{"kenya", "mexico", "guam"} {
		workers[dc] = gdfs.NewMetaWorker(dc)
		if err := cluster.AddWorker(workers[dc]); err != nil {
			log.Fatal(err)
		}
	}
	kenya, err := cluster.NewClient("kenya")
	if err != nil {
		log.Fatal(err)
	}

	// The VM's disk image starts its life in Kenya.
	const disk = "/vm/hpc-001/disk"
	fi, err := kenya.Create(disk, 32<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s: %d MB in %d blocks\n", disk, fi.Size>>20, len(fi.Blocks))

	// Re-replication brings every block up to two valid replicas.  The
	// master picks the destination; ask it where the copies went.
	copied := cluster.ReplicateOnce()
	loc, err := master.BlockLocations(fi.Blocks[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-replication copied %d blocks; block 0 is held by %v\n", copied, loc.Valid)
	var warm gdfs.WorkerID
	for _, w := range loc.Valid {
		if w != "kenya" {
			warm = w
		}
	}

	// The VM dirties a couple of blocks while running in Kenya.
	for _, block := range []int{0, 3} {
		if err := kenya.DirtyBlocks(fi, block, block+1); err != nil {
			log.Fatal(err)
		}
	}
	loc, err = master.BlockLocations(fi.Blocks[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VM dirtied blocks 0 and 3 in Kenya: block 0 valid on %v, stale on %v\n", loc.Valid, loc.Stale)
	printVersions(workers, fi, 0, warm)

	// How much would a migration have to ship right now?
	printPending(kenya, disk)

	// The master plans to refresh the stale copies on the warm datacenter:
	// a worker holding an old version is cheaper to bring up to date than
	// one holding nothing.
	for _, task := range master.UnderReplicated() {
		fmt.Printf("  re-replication plan: block ID %d from %s to %s\n", task.Block, task.Source, task.Dest)
	}

	// Re-replication executes that plan.
	copied = cluster.ReplicateOnce()
	fmt.Printf("re-replication copied %d blocks\n", copied)
	printVersions(workers, fi, 0, warm)
	printPending(kenya, disk)
	if pending, err := kenya.PendingMigrationBytes(disk, warm); err != nil || pending != 0 {
		log.Fatalf("%s should be fully repaired: pending %d bytes, err %v", warm, pending, err)
	}
	fmt.Printf("%s now ships nothing; a datacenter without a replica still ships the whole disk\n", warm)
}

// printVersions compares Kenya's replica of a disk block with the warm copy.
func printVersions(workers map[gdfs.WorkerID]*gdfs.MetaWorker, fi *gdfs.FileInfo, index int, warm gdfs.WorkerID) {
	src, _ := workers["kenya"].BlockMeta(fi.Blocks[index])
	dst, _ := workers[warm].BlockMeta(fi.Blocks[index])
	state := "stale"
	if src == dst {
		state = "up to date"
	}
	fmt.Printf("  block %d: kenya at version %d, %s at version %d (%s)\n", index, src.Version, warm, dst.Version, state)
}

// printPending reports the bytes a migration of the disk would ship to
// each other datacenter.
func printPending(kenya *gdfs.Client, disk string) {
	for _, dest := range []gdfs.WorkerID{"mexico", "guam"} {
		pending, err := kenya.PendingMigrationBytes(disk, dest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pending migration bytes to %-7s %5.1f MB\n", dest, float64(pending)/(1<<20))
	}
}
