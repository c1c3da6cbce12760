package gdfs

import (
	"errors"
	"testing"
)

// newTestCluster builds a 3-datacenter in-memory cluster.
func newTestCluster(t *testing.T) (*Cluster, []*MetaWorker) {
	t.Helper()
	master := NewMaster(2)
	cluster := NewCluster(master)
	workers := []*MetaWorker{NewMetaWorker("dc-a"), NewMetaWorker("dc-b"), NewMetaWorker("dc-c")}
	for _, w := range workers {
		if err := cluster.AddWorker(w, string(w.ID())); err != nil {
			t.Fatalf("AddWorker(%s): %v", w.ID(), err)
		}
	}
	return cluster, workers
}

func TestMasterCreateStatDelete(t *testing.T) {
	cluster, _ := newTestCluster(t)
	m := cluster.master

	fi, err := m.Create("/vm/disk0", 10<<20, "dc-a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if fi.Size != 10<<20 {
		t.Errorf("size = %d", fi.Size)
	}
	if len(fi.Blocks) != 3 { // 10 MiB over 4 MiB blocks → 3 blocks
		t.Errorf("blocks = %d, want 3", len(fi.Blocks))
	}
	if _, err := m.Create("/vm/disk0", 1, "dc-a"); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate create: want ErrFileExists, got %v", err)
	}
	if _, err := m.Create("/x", 1, "nope"); !errors.Is(err, ErrWorkerNotFound) {
		t.Errorf("unknown worker: want ErrWorkerNotFound, got %v", err)
	}
	if _, err := m.Create("/neg", -1, "dc-a"); err == nil {
		t.Error("negative size should error")
	}

	got := m.files["/vm/disk0"]
	if got == nil || got.Size != fi.Size || len(got.Blocks) != len(fi.Blocks) {
		t.Error("namespace entry mismatch")
	}
	if len(m.files) != 1 {
		t.Errorf("namespace holds %d files, want 1", len(m.files))
	}
	if len(m.workerList) != 3 {
		t.Errorf("workers = %v", m.workerList)
	}
}

func TestWriteInvalidatesRemoteReplicas(t *testing.T) {
	cluster, workers := newTestCluster(t)
	clientA, err := cluster.NewClient("dc-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewClient("dc-zzz"); err == nil {
		t.Error("client for unknown worker should error")
	}

	fi, err := clientA.Create("/vm/disk", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate everything so dc-b holds valid copies too.
	if copied := cluster.ReplicateOnce(); copied != len(fi.Blocks) {
		t.Fatalf("ReplicateOnce copied %d blocks, want %d", copied, len(fi.Blocks))
	}
	loc, err := cluster.master.BlockLocations(fi.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.Valid) != 2 {
		t.Fatalf("after replication: %d valid replicas, want 2", len(loc.Valid))
	}

	// A write from dc-a invalidates the copy on the other datacenter.
	if err := clientA.DirtyBlock(fi, 0); err != nil {
		t.Fatalf("DirtyBlock: %v", err)
	}
	loc, err = cluster.master.BlockLocations(fi.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.Valid) != 1 || loc.Valid[0] != "dc-a" {
		t.Errorf("after write: valid replicas = %v, want only dc-a", loc.Valid)
	}
	if len(loc.Stale) != 1 {
		t.Errorf("after write: stale replicas = %v, want the old copy", loc.Stale)
	}

	// The stale copy still holds the old version.
	a, _ := workers[0].BlockMeta(fi.Blocks[0])
	b, _ := workers[1].BlockMeta(fi.Blocks[0])
	if a == b || a.Version != b.Version+1 {
		t.Errorf("after write: dc-a %+v, dc-b %+v, want dc-b one version behind", a, b)
	}

	// Background re-replication repairs the stale copy.
	if copied := cluster.ReplicateOnce(); copied == 0 {
		t.Error("expected re-replication work after the write")
	}
	loc, _ = cluster.master.BlockLocations(fi.Blocks[0])
	if len(loc.Valid) != 2 {
		t.Errorf("after re-replication: %d valid replicas, want 2", len(loc.Valid))
	}
	if b, _ = workers[1].BlockMeta(fi.Blocks[0]); a != b {
		t.Errorf("after re-replication: dc-b %+v, want dc-a's %+v", b, a)
	}
}

func TestStaleBlocksDriveMigrationCost(t *testing.T) {
	cluster, _ := newTestCluster(t)
	clientA, _ := cluster.NewClient("dc-a")
	fi, err := clientA.Create("/vm/disk", 12<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster.ReplicateOnce() // dc-b has copies now
	// Initially nothing needs to move to dc-b.
	pending, err := clientA.PendingMigrationBytes("/vm/disk", "dc-b")
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Errorf("pending bytes = %d, want 0 right after replication", pending)
	}
	// Everything must move to dc-c (no replicas there).
	pending, _ = clientA.PendingMigrationBytes("/vm/disk", "dc-c")
	if pending != fi.Size {
		t.Errorf("pending to dc-c = %d, want full size %d", pending, fi.Size)
	}
	// Dirty one block; only that block is pending for dc-b.
	if err := clientA.DirtyBlock(fi, 1); err != nil {
		t.Fatal(err)
	}
	pending, _ = clientA.PendingMigrationBytes("/vm/disk", "dc-b")
	if pending != fi.BlockSize {
		t.Errorf("pending after one dirty block = %d, want %d", pending, fi.BlockSize)
	}
	if _, err := cluster.master.StaleBytesOn("/missing", "dc-a"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("want ErrFileNotFound, got %v", err)
	}
}

func TestUnderReplicatedPlanPrefersStaleHolders(t *testing.T) {
	cluster, _ := newTestCluster(t)
	clientA, _ := cluster.NewClient("dc-a")
	fi, err := clientA.Create("/f", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster.ReplicateOnce()
	// Invalidate dc-b's copy by writing from dc-a.
	if err := clientA.DirtyBlock(fi, 0); err != nil {
		t.Fatal(err)
	}
	tasks := cluster.master.UnderReplicated()
	if len(tasks) == 0 {
		t.Fatal("expected replication tasks")
	}
	// The stale holder (dc-b) should be chosen as the destination before an
	// absent worker (dc-c).
	if tasks[0].Dest != "dc-b" {
		t.Errorf("first destination = %s, want dc-b (stale holder)", tasks[0].Dest)
	}
	if tasks[0].Source != "dc-a" {
		t.Errorf("source = %s, want dc-a (only valid holder)", tasks[0].Source)
	}
}
