package gdfs

import (
	"bytes"
	"fmt"
	"math/rand"
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
	workers                     []WorkerID
}

func newPlanePair(t *testing.T, nWorkers, replication int) *planePair {
	t.Helper()
	p := &planePair{
		payload: NewCluster(NewMaster(replication)),
		meta:    NewCluster(NewMaster(replication)),
	}
	for i := 0; i < nWorkers; i++ {
		id := WorkerID(fmt.Sprintf("dc-%d", i))
		p.workers = append(p.workers, id)
		ps, ms := newPayloadStore(id), NewMetaWorker(id)
		p.payloadStores = append(p.payloadStores, ps)
		p.metaStores = append(p.metaStores, ms)
		if err := p.payload.AddWorker(ps, string(id)); err != nil {
			t.Fatal(err)
		}
		if err := p.meta.AddWorker(ms, string(id)); err != nil {
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
	pTasks := p.payload.Master().UnderReplicated()
	mTasks := p.meta.Master().UnderReplicated()
	if len(pTasks) != len(mTasks) {
		t.Fatalf("%s: UnderReplicated payload=%d tasks meta=%d tasks", label, len(pTasks), len(mTasks))
	}
	for i := range pTasks {
		if pTasks[i] != mTasks[i] {
			t.Fatalf("%s: task %d payload=%+v meta=%+v", label, i, pTasks[i], mTasks[i])
		}
	}
	for _, path := range p.payload.Master().Files() {
		fi, err := p.payload.Master().Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fi.Blocks {
			pl, err := p.payload.Master().BlockLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			ml, err := p.meta.Master().BlockLocations(id)
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
// counters after every step.
func TestMetaPayloadEquivalence(t *testing.T) {
	p := newPlanePair(t, 3, 3)
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
		case 0: // dirty a random block of a random file at its home
			f := &files[rng.Intn(len(files))]
			b := rng.Intn(len(f.pfi.Blocks))
			if err := p.payloadClients[f.home].DirtyBlock(f.pfi, b); err != nil {
				t.Fatal(err)
			}
			if err := p.metaClients[f.home].DirtyBlock(f.mfi, b); err != nil {
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

// TestMetaPayloadFirstWriteElsewhere covers a state the random schedule
// does not reach: a block's first write lands on a worker that never held
// it while its creator still holds the zero block, so a version-1 dirty
// replica and a version-1 zero replica coexist and must differ on both
// planes.
func TestMetaPayloadFirstWriteElsewhere(t *testing.T) {
	p := newPlanePair(t, 2, 2)
	pfi, err := p.payloadClients[0].Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	mfi, err := p.metaClients[0].Create("/vm/disk", DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.payloadClients[1].DirtyBlock(pfi, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.metaClients[1].DirtyBlock(mfi, 0); err != nil {
		t.Fatal(err)
	}
	p.check(t, "after the first write on dc-1")
}

// TestMetaPayloadEquivalenceConcurrent dirties disjoint files from
// concurrent goroutines on both planes (run under -race by make test).
// Per-file writers keep the final state deterministic, so the planes must
// still agree counter-for-counter.
func TestMetaPayloadEquivalenceConcurrent(t *testing.T) {
	p := newPlanePair(t, 3, 3)
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
				if err := pc.DirtyBlock(f.pfi, b); err != nil {
					errs[i] = err
					return
				}
				if err := mc.DirtyBlock(f.mfi, b); err != nil {
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
