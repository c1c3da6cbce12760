package gdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// planePair is one cluster of payload reference stores and one of
// MetaWorkers, driven through identical op sequences so every externally
// visible counter can be compared.
type planePair struct {
	payload, meta               *Cluster
	payloadClients, metaClients []*Client
	payloadStores               []*payloadStore
	metaStores                  []*MetaWorker
	workers                     []WorkerID // in registration order
	replication                 int
}

// workerIDs returns n worker IDs, dc-0 … dc-(n-1).
func workerIDs(n int) []WorkerID {
	ids := make([]WorkerID, n)
	for i := range ids {
		ids[i] = WorkerID(fmt.Sprintf("dc-%d", i))
	}
	return ids
}

// newPlanePair registers the workers with both clusters in the given order.
func newPlanePair(t *testing.T, ids []WorkerID, replication int) *planePair {
	t.Helper()
	p := &planePair{
		payload:     NewCluster(NewMaster(replication)),
		meta:        NewCluster(NewMaster(replication)),
		replication: replication,
	}
	for _, id := range ids {
		p.workers = append(p.workers, id)
		ps, ms := newPayloadStore(id), NewMetaWorker(id)
		p.payloadStores = append(p.payloadStores, ps)
		p.metaStores = append(p.metaStores, ms)
		if err := p.payload.AddWorker(ps); err != nil {
			t.Fatal(err)
		}
		if err := p.meta.AddWorker(ms); err != nil {
			t.Fatal(err)
		}
		pc, err := p.payload.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := p.meta.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		p.payloadClients = append(p.payloadClients, pc)
		p.metaClients = append(p.metaClients, mc)
	}
	return p
}

// referencePlan derives the re-replication plan from the payload plane's
// replica listings, independently of the master's planner: for every
// block in ID order with at least one but fewer than the target valid
// replicas, copy from the first valid holder in worker-ID order to the
// stale holders, then to the workers holding nothing, each in worker-ID
// order, until the target is met.
func (p *planePair) referencePlan(t *testing.T) []ReplicationTask {
	t.Helper()
	sorted := append([]WorkerID(nil), p.workers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var ids []BlockID
	for _, fi := range p.payload.master.files {
		ids = append(ids, fi.Blocks...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var tasks []ReplicationTask
	for _, id := range ids {
		loc, err := p.payload.master.BlockLocations(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(loc.Valid) == 0 || len(loc.Valid) >= p.replication {
			continue
		}
		dests := append([]WorkerID(nil), loc.Stale...)
		for _, w := range sorted {
			if !slices.Contains(loc.Valid, w) && !slices.Contains(loc.Stale, w) {
				dests = append(dests, w)
			}
		}
		for _, d := range dests[:min(len(dests), p.replication-len(loc.Valid))] {
			tasks = append(tasks, ReplicationTask{Block: id, Source: loc.Valid[0], Dest: d})
		}
	}
	return tasks
}

// check asserts the two planes agree on every externally visible counter:
// per-worker BytesStored, per-block replica sets, the re-replication plan,
// and pending-migration bytes for every (file, worker) pair.  It also checks
// the digest contract: the same workers hold a replica of each block on
// both planes, and two replicas' payload bytes are equal exactly when their
// BlockMeta records are.
func (p *planePair) check(t *testing.T, label string) {
	t.Helper()
	for i, w := range p.workers {
		if pb, mb := p.payloadStores[i].BytesStored(), p.metaStores[i].BytesStored(); pb != mb {
			t.Fatalf("%s: worker %s BytesStored payload=%d meta=%d", label, w, pb, mb)
		}
	}
	want := p.referencePlan(t)
	for plane, c := range map[string]*Cluster{"payload": p.payload, "meta": p.meta} {
		if got := c.master.UnderReplicated(); !slices.Equal(got, want) {
			t.Fatalf("%s: %s UnderReplicated = %+v, want %+v", label, plane, got, want)
		}
	}
	paths := make([]string, 0, len(p.payload.master.files))
	for path := range p.payload.master.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fi := p.payload.master.files[path]
		for _, id := range fi.Blocks {
			pl, err := p.payload.master.BlockLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			ml, err := p.meta.master.BlockLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pl) != fmt.Sprint(ml) {
				t.Fatalf("%s: block %d locations payload=%v meta=%v", label, id, pl, ml)
			}
			p.checkContent(t, label, id)
		}
		for wi, w := range p.workers {
			pb, err := p.payloadClients[wi].PendingMigrationBytes(path, w)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := p.metaClients[wi].PendingMigrationBytes(path, w)
			if err != nil {
				t.Fatal(err)
			}
			if pb != mb {
				t.Fatalf("%s: pending bytes to %s for %s payload=%d meta=%d", label, w, path, pb, mb)
			}
		}
	}
}

// checkContent asserts "same BlockMeta ⇔ same payload bytes" for every
// pair of workers holding a replica of the block.
func (p *planePair) checkContent(t *testing.T, label string, id BlockID) {
	t.Helper()
	for i := range p.workers {
		pi, pok := p.payloadStores[i].block(id)
		mi, mok := p.metaStores[i].BlockMeta(id)
		if pok != mok {
			t.Fatalf("%s: block %d held on %s: payload=%v meta=%v", label, id, p.workers[i], pok, mok)
		}
		if !pok {
			continue
		}
		for j := i + 1; j < len(p.workers); j++ {
			pj, ok := p.payloadStores[j].block(id)
			if !ok {
				continue
			}
			mj, _ := p.metaStores[j].BlockMeta(id)
			if sameBytes, sameMeta := bytes.Equal(pi, pj), mi == mj; sameBytes != sameMeta {
				t.Fatalf("%s: block %d on %s and %s: equal bytes=%v but equal meta=%v (%+v vs %+v)",
					label, id, p.workers[i], p.workers[j], sameBytes, sameMeta, mi, mj)
			}
		}
	}
}

// TestMetaPayloadEquivalence drives both planes through the emulation's op
// mix — create, whole-block dirty writes, re-replication, pending-bytes
// queries — with a seeded random schedule and asserts byte-for-byte equal
// counters after every step.  The shapes cover full replication (every
// worker holds every block, as in the emulation), partial replication
// (the "stale holders first, then the rest" destination order decides
// which worker is refreshed) and workers registered out of ID order.
func TestMetaPayloadEquivalence(t *testing.T) {
	for _, c := range []struct {
		name        string
		workers     []WorkerID
		replication int
	}{
		{"3workers-r3", workerIDs(3), 3},
		{"2workers-r2", workerIDs(2), 2},
		{"4workers-r4", workerIDs(4), 4},
		{"5workers-r2", workerIDs(5), 2},
		{"unsorted-r2", []WorkerID{"dc-c", "dc-a", "dc-d", "dc-b"}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			runEquivalence(t, newPlanePair(t, c.workers, c.replication))
		})
	}
}

func runEquivalence(t *testing.T, p *planePair) {
	rng := rand.New(rand.NewSource(7))

	type file struct {
		home     int
		pfi, mfi *FileInfo
	}
	var files []file
	sizes := []int64{DefaultBlockSize * 4, DefaultBlockSize*2 + 12345, 777, DefaultBlockSize * 16}
	for i, size := range sizes {
		home := i % len(p.workers)
		path := fmt.Sprintf("/vm/%d/disk", i)
		pfi, err := p.payloadClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file{home: home, pfi: pfi, mfi: mfi})
	}
	p.check(t, "after create")

	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0: // dirty 1–4 consecutive blocks of a random file at its home
			f := &files[rng.Intn(len(files))]
			from := rng.Intn(len(f.pfi.Blocks))
			to := min(from+1+rng.Intn(4), len(f.pfi.Blocks))
			if err := p.payloadClients[f.home].DirtyBlocks(f.pfi, from, to); err != nil {
				t.Fatal(err)
			}
			if err := p.metaClients[f.home].DirtyBlocks(f.mfi, from, to); err != nil {
				t.Fatal(err)
			}
		case 1: // the file "migrates": dirty writes start at a new home
			f := &files[rng.Intn(len(files))]
			f.home = rng.Intn(len(p.workers))
		case 2: // background re-replication round
			pc := p.payload.ReplicateOnce()
			mc := p.meta.ReplicateOnce()
			if pc != mc {
				t.Fatalf("round %d: ReplicateOnce payload=%d meta=%d", round, pc, mc)
			}
		}
		p.check(t, fmt.Sprintf("round %d", round))
	}
}

// TestPlanFollowsWorkerIDOrder registers workers out of ID order and checks
// that replica listings and the re-replication plan still follow worker-ID
// order, not registration order: the source is the first valid holder by
// ID, stale holders are refreshed before empty workers, and ties go to the
// lower ID.
func TestPlanFollowsWorkerIDOrder(t *testing.T) {
	cluster := NewCluster(NewMaster(3))
	clients := map[WorkerID]*Client{}
	for _, id := range []WorkerID{"dc-c", "dc-a", "dc-d", "dc-b"} {
		if err := cluster.AddWorker(NewMetaWorker(id)); err != nil {
			t.Fatal(err)
		}
		c, err := cluster.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
	}
	fi, err := clients["dc-d"].Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := []ReplicationTask{{1, "dc-d", "dc-a"}, {1, "dc-d", "dc-b"}}
	if got := cluster.master.UnderReplicated(); !slices.Equal(got, want) {
		t.Fatalf("plan after create on dc-d = %+v, want %+v", got, want)
	}
	cluster.ReplicateOnce() // dc-a, dc-b and dc-d hold the block
	if err := clients["dc-c"].DirtyBlocks(fi, 0, 1); err != nil {
		t.Fatal(err)
	}
	loc, err := cluster.master.BlockLocations(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(loc.Valid, loc.Stale); got != "[dc-c] [dc-a dc-b dc-d]" {
		t.Errorf("after a write on dc-c: valid, stale = %s, want [dc-c] [dc-a dc-b dc-d]", got)
	}
	want = []ReplicationTask{{1, "dc-c", "dc-a"}, {1, "dc-c", "dc-b"}}
	if got := cluster.master.UnderReplicated(); !slices.Equal(got, want) {
		t.Errorf("plan after a write on dc-c = %+v, want %+v", got, want)
	}
}

// TestRegisterWorkerLimits pins the master's worker table: a worker
// registers once, and a 65th worker is refused because replica sets are
// 64-bit masks.
func TestRegisterWorkerLimits(t *testing.T) {
	cluster := NewCluster(NewMaster(2))
	for _, id := range workerIDs(maxWorkers) {
		if err := cluster.AddWorker(NewMetaWorker(id)); err != nil {
			t.Fatalf("AddWorker(%s): %v", id, err)
		}
	}
	if err := cluster.AddWorker(NewMetaWorker("dc-64")); err == nil {
		t.Error("a 65th worker was accepted")
	}
	if err := cluster.AddWorker(NewMetaWorker("dc-0")); err == nil {
		t.Error("a worker was registered twice")
	}
	if _, err := cluster.NewClient("dc-64"); !errors.Is(err, ErrWorkerNotFound) {
		t.Errorf("client of the refused worker: want ErrWorkerNotFound, got %v", err)
	}
	// The last admitted worker is fully usable.
	last, err := cluster.NewClient("dc-63")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := last.Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if copied := cluster.ReplicateOnce(); copied != 1 {
		t.Errorf("ReplicateOnce copied %d blocks, want 1", copied)
	}
	if err := last.DirtyBlocks(fi, 0, 1); err != nil {
		t.Fatal(err)
	}
	loc, err := cluster.master.BlockLocations(fi.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(loc.Valid, loc.Stale); got != "[dc-63] [dc-0]" {
		t.Errorf("valid, stale = %s, want [dc-63] [dc-0]", got)
	}
}

// TestSteadyStateRoundAllocatesNothing pins the emulation's per-hour GDFS
// work — a dirty write to every block of every file, then a re-replication
// round — at
// zero allocations, so per-block maps cannot quietly come back.
func TestSteadyStateRoundAllocatesNothing(t *testing.T) {
	cluster := NewCluster(NewMaster(4))
	var clients []*Client
	for _, id := range workerIDs(4) {
		if err := cluster.AddWorker(NewMetaWorker(id)); err != nil {
			t.Fatal(err)
		}
		c, err := cluster.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	var files []*FileInfo
	for i := 0; i < 8; i++ {
		fi, err := clients[0].Create(fmt.Sprintf("/vm/%d/disk", i), 16*DefaultBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fi)
	}
	cluster.ReplicateOnce()
	round := 0
	allocs := testing.AllocsPerRun(10, func() {
		writer := clients[round%len(clients)]
		round++
		for _, fi := range files {
			if err := writer.DirtyBlocks(fi, 0, len(fi.Blocks)); err != nil {
				t.Fatal(err)
			}
		}
		if copied := cluster.ReplicateOnce(); copied != 3*8*16 {
			t.Fatalf("ReplicateOnce copied %d blocks, want %d", copied, 3*8*16)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady-state round allocates %v times, want 0", allocs)
	}
}

// TestMetaPayloadFirstWriteElsewhere covers a state the random schedule
// does not reach: a block's first write lands on a worker that never held
// it while its creator still holds the zero block, so a version-1 dirty
// replica and a version-1 zero replica coexist and must differ on both
// planes.
func TestMetaPayloadFirstWriteElsewhere(t *testing.T) {
	p := newPlanePair(t, workerIDs(2), 2)
	pfi, err := p.payloadClients[0].Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	mfi, err := p.metaClients[0].Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.payloadClients[1].DirtyBlocks(pfi, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.metaClients[1].DirtyBlocks(mfi, 0, 1); err != nil {
		t.Fatal(err)
	}
	p.check(t, "after the first write on dc-1")
}

// TestMetaPayloadEquivalenceConcurrent dirties disjoint files from
// concurrent goroutines on both planes (run under -race by make test).
// Per-file writers keep the final state deterministic, so the planes must
// still agree counter-for-counter.
func TestMetaPayloadEquivalenceConcurrent(t *testing.T) {
	p := newPlanePair(t, workerIDs(3), 3)
	const nFiles = 8
	type file struct {
		home     int
		pfi, mfi *FileInfo
	}
	files := make([]file, nFiles)
	for i := range files {
		home := i % len(p.workers)
		path := fmt.Sprintf("/vm/%d/disk", i)
		pfi, err := p.payloadClients[home].Create(path, DefaultBlockSize*4)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, DefaultBlockSize*4)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = file{home: home, pfi: pfi, mfi: mfi}
	}
	p.payload.ReplicateOnce()
	p.meta.ReplicateOnce()

	var wg sync.WaitGroup
	errs := make([]error, nFiles)
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One writer per file through the shared per-datacenter
			// clients; different files race only on the master's and the
			// stores' locks, not on any block.
			f := files[i]
			pc, mc := p.payloadClients[f.home], p.metaClients[f.home]
			for round := 0; round < 20; round++ {
				b := (i + round) % len(f.pfi.Blocks)
				if err := pc.DirtyBlocks(f.pfi, b, b+1); err != nil {
					errs[i] = err
					return
				}
				if err := mc.DirtyBlocks(f.mfi, b, b+1); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pc, mc := p.payload.ReplicateOnce(), p.meta.ReplicateOnce(); pc != mc {
		t.Fatalf("ReplicateOnce payload=%d meta=%d", pc, mc)
	}
	p.check(t, "after concurrent dirtying")
}
