package gdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// replicateSequential is the reference ReplicateOnce is checked against: it
// executes UnderReplicated's task list in order, one block per CopyBlocks
// call, setting a destination's replica bits right after its copy lands.
// It returns the number of blocks copied.
func replicateSequential(c *Cluster) int {
	tasks := c.master.UnderReplicated()
	m := c.master
	m.mu.Lock()
	defer m.mu.Unlock()
	copied := 0
	for _, task := range tasks {
		s, d := m.index[task.Source], m.index[task.Dest]
		src, dst := c.storeAt(s), c.storeAt(d)
		if src == nil || dst == nil {
			continue
		}
		if n, _ := dst.CopyBlocks(src, []BlockID{task.Block}); n != 1 {
			continue
		}
		b := &m.blocks[task.Block-1]
		b.valid |= 1 << d
		b.held |= 1 << d
		copied++
	}
	return copied
}

// errRefused is the failure refusingStore injects.
var errRefused = errors.New("refused by test store")

// refusingStore is a MetaWorker that refuses to install one chosen block
// (0 refuses none), failing a batch in the middle.
type refusingStore struct {
	*MetaWorker
	refuse BlockID
}

func (s *refusingStore) CopyBlocks(src BlockStore, ids []BlockID) (int, error) {
	if r, ok := src.(*refusingStore); ok {
		src = r.MetaWorker
	}
	if i := slices.Index(ids, s.refuse); i >= 0 {
		n, err := s.MetaWorker.CopyBlocks(src, ids[:i])
		if err == nil {
			err = errRefused
		}
		return n, err
	}
	return s.MetaWorker.CopyBlocks(src, ids)
}

// metaCluster is a cluster of MetaWorkers with one client per worker, both
// in registration order.
type metaCluster struct {
	*Cluster
	clients []*Client
	stores  []*MetaWorker
}

// newMetaCluster registers the workers in the given order; wrap, when
// non-nil, chooses the BlockStore each MetaWorker is registered as.
func newMetaCluster(t *testing.T, ids []WorkerID, replication int, wrap func(*MetaWorker) BlockStore) *metaCluster {
	t.Helper()
	c := &metaCluster{Cluster: NewCluster(NewMaster(replication))}
	for _, id := range ids {
		w := NewMetaWorker(id)
		var store BlockStore = w
		if wrap != nil {
			store = wrap(w)
		}
		if err := c.AddWorker(store); err != nil {
			t.Fatal(err)
		}
		cl, err := c.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		c.clients = append(c.clients, cl)
		c.stores = append(c.stores, w)
	}
	return c
}

// create makes one file of the given number of blocks per entry of homes,
// file i at worker index homes[i], and returns them.
func (c *metaCluster) create(t *testing.T, homes []int, blocks int) []*FileInfo {
	t.Helper()
	files := make([]*FileInfo, len(homes))
	for i, home := range homes {
		fi, err := c.clients[home].Create(fmt.Sprintf("/vm/%d/disk", i), int64(blocks)*DefaultBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fi
	}
	return files
}

// requireSameState fails unless two clusters built from the same workers
// hold the same per-block replica masks, the same replica record of every
// block on every worker, and the same BytesStored per worker.
func requireSameState(t *testing.T, label string, got, want *metaCluster) {
	t.Helper()
	if !slices.Equal(got.master.blocks, want.master.blocks) {
		for i := range want.master.blocks {
			if i >= len(got.master.blocks) || got.master.blocks[i] != want.master.blocks[i] {
				t.Fatalf("%s: block %d replica masks differ", label, i+1)
			}
		}
		t.Fatalf("%s: %d blocks, want %d", label, len(got.master.blocks), len(want.master.blocks))
	}
	for w, ws := range want.stores {
		gs := got.stores[w]
		if g, x := gs.BytesStored(), ws.BytesStored(); g != x {
			t.Fatalf("%s: worker %s BytesStored = %d, want %d", label, ws.ID(), g, x)
		}
		for id := BlockID(1); int(id) <= len(want.master.blocks); id++ {
			g, _ := gs.BlockMeta(id)
			if x, _ := ws.BlockMeta(id); g != x {
				t.Fatalf("%s: worker %s block %d = %+v, want %+v", label, ws.ID(), id, g, x)
			}
		}
	}
}

// TestReplicateOnceMatchesSequential drives two clusters through the same
// seeded dirty/migrate schedule; one re-replicates with ReplicateOnce's
// grouped batches, the other with the one-copy-at-a-time reference.  After
// every round both must hold the same masks, records and BytesStored and
// have copied the same number of blocks.  The fleet shape is the
// planner-fleet trace's GDFS: 4 workers, 200 files of 16 blocks.
func TestReplicateOnceMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		name          string
		workers       []WorkerID
		replication   int
		files, blocks int
		rounds        int
	}{
		{"unsorted-r2", []WorkerID{"dc-c", "dc-a", "dc-d", "dc-b"}, 2, 6, 5, 40},
		{"5workers-r2", workerIDs(5), 2, 8, 5, 40},
		{"fleet-4workers-r4", workerIDs(4), 4, 200, 16, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			homes := make([]int, c.files)
			for i := range homes {
				homes[i] = rng.Intn(len(c.workers))
			}
			batched := newMetaCluster(t, c.workers, c.replication, nil)
			seq := newMetaCluster(t, c.workers, c.replication, nil)
			bfiles, sfiles := batched.create(t, homes, c.blocks), seq.create(t, homes, c.blocks)
			total := 0
			for round := 0; round < c.rounds; round++ {
				tasks := len(batched.master.UnderReplicated())
				bc, sc := batched.ReplicateOnce(), replicateSequential(seq.Cluster)
				if bc != sc || bc != tasks {
					t.Fatalf("round %d: ReplicateOnce copied %d, reference %d, plan %d", round, bc, sc, tasks)
				}
				total += bc
				requireSameState(t, fmt.Sprintf("round %d", round), batched, seq)
				for i := range homes {
					switch r := rng.Intn(10); {
					case r < 5: // dirty a random range at the file's home
						from := rng.Intn(c.blocks)
						to := from + 1 + rng.Intn(c.blocks-from)
						if err := batched.clients[homes[i]].DirtyBlocks(bfiles[i], from, to); err != nil {
							t.Fatal(err)
						}
						if err := seq.clients[homes[i]].DirtyBlocks(sfiles[i], from, to); err != nil {
							t.Fatal(err)
						}
					case r == 5: // the file migrates: writes start elsewhere
						homes[i] = rng.Intn(len(c.workers))
					}
				}
			}
			if total == 0 {
				t.Fatal("the schedule never re-replicated a block")
			}
		})
	}
}

// TestReplicateOnceSkipsFailedCopy makes one destination refuse one block
// in the middle of its batch (4 workers × 3,200 blocks, every block
// created on dc-0, so dc-0 → dc-2 is one 3,200-block batch).  Only that
// block's bit on dc-2 stays clear, every later block of the batch is
// still copied, and the round copies exactly one block fewer than an
// unfailing cluster — and the same as the sequential reference.  Once the
// refusal is lifted, the next round copies just that block.
func TestReplicateOnceSkipsFailedCopy(t *testing.T) {
	const refused, refusing = BlockID(1601), 2
	ids := workerIDs(4)
	homes := make([]int, 200)
	wrap := func(w *MetaWorker) BlockStore {
		if w.ID() == ids[refusing] {
			return &refusingStore{MetaWorker: w, refuse: refused}
		}
		return w
	}
	plain := newMetaCluster(t, ids, 4, nil)
	failing := newMetaCluster(t, ids, 4, wrap)
	seq := newMetaCluster(t, ids, 4, wrap)
	for _, c := range []*metaCluster{plain, failing, seq} {
		c.create(t, homes, 16)
	}

	want := plain.ReplicateOnce()
	if want != 3*3200 {
		t.Fatalf("unfailing round copied %d, want %d", want, 3*3200)
	}
	if got := failing.ReplicateOnce(); got != want-1 {
		t.Fatalf("round with a refused block copied %d, want %d", got, want-1)
	}
	if got := replicateSequential(seq.Cluster); got != want-1 {
		t.Fatalf("sequential reference copied %d, want %d", got, want-1)
	}
	requireSameState(t, "batched vs sequential", failing, seq)

	bit := uint64(1) << refusing
	for i, b := range failing.master.blocks {
		w := plain.master.blocks[i]
		if BlockID(i+1) == refused {
			w.valid &^= bit
			w.held &^= bit
		}
		if b != w {
			t.Fatalf("block %d masks = %+v, want %+v", i+1, b, w)
		}
	}
	if m, ok := failing.stores[refusing].BlockMeta(refused); ok {
		t.Fatalf("refused block installed on %s: %+v", ids[refusing], m)
	}
	if got, want := failing.stores[refusing].BytesStored(), plain.stores[refusing].BytesStored()-DefaultBlockSize; got != want {
		t.Fatalf("%s BytesStored = %d, want %d", ids[refusing], got, want)
	}

	if got := failing.ReplicateOnce(); got != 0 {
		t.Fatalf("round with the refusal still in place copied %d, want 0", got)
	}
	failing.storeAt(refusing).(*refusingStore).refuse = 0
	if got := failing.ReplicateOnce(); got != 1 {
		t.Fatalf("round after lifting the refusal copied %d, want 1", got)
	}
	requireSameState(t, "after the refusal is lifted", failing, plain)
}
