package gdfs

import (
	"fmt"
	"slices"
)

// BlockStore is a worker's replica store, reduced to the operations the
// cluster and its clients perform.  MetaWorker is the implementation; the
// interface exists so the differential tests can plug a payload reference
// store into the same Cluster code.
type BlockStore interface {
	// ID returns the worker's identity.
	ID() WorkerID
	// CreateBlock registers a freshly created all-zero block.
	CreateBlock(id BlockID, size int64) error
	// DirtyBlocks records whole-block overwrites of blocks [from, to) of
	// a file.
	DirtyBlocks(fi *FileInfo, from, to int) error
	// CopyBlocks installs src's replicas of the blocks, in order, under
	// one lock of each store (re-replication), and returns how many it
	// installed before the first failure.  src is another store of the
	// same kind: a cluster is homogeneous.
	CopyBlocks(src BlockStore, ids []BlockID) (int, error)
	// BytesStored returns the total bytes held.
	BytesStored() int64
}

// Cluster bundles a master with the set of workers so clients and
// re-replication can reach every block store.
//
// Lock order is master, then store: ReplicateOnce copies between stores
// while it holds the master's write lock, taking a source's and a
// destination's lock together once per (source, destination) pair, and
// every other path holds one lock at a time (a dirty write updates the
// local store, releases it, then commits to the master), so nothing waits
// for the master while holding a store, and no two copies overlap.
type Cluster struct {
	master *Master
	stores []BlockStore // indexed by worker index, guarded by master.mu

	// Re-replication scratch, reused across rounds and guarded by
	// master.mu: a round's planned copies in block-ID order, the copies'
	// block IDs grouped by (source, destination) pair, and the pair
	// offsets the counting sort that groups them leaves behind.
	planned []plannedCopy
	grouped []BlockID
	ends    []int
}

// plannedCopy is one copy of a re-replication round: block id from worker
// index pair/n to worker index pair%n, n the number of workers.
type plannedCopy struct {
	id   BlockID
	pair int
}

// NewCluster returns a cluster around the given master.
func NewCluster(master *Master) *Cluster {
	return &Cluster{master: master}
}

// AddWorker registers a block store with the master and the cluster.
func (c *Cluster) AddWorker(store BlockStore) error {
	m := c.master
	if err := m.RegisterWorker(store.ID()); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.index[store.ID()]
	if n := w + 1 - len(c.stores); n > 0 {
		c.stores = append(c.stores, make([]BlockStore, n)...)
	}
	c.stores[w] = store
	return nil
}

// storeAt returns the block store of worker index w, nil if the worker was
// registered with the master alone.  The caller holds master.mu.
func (c *Cluster) storeAt(w int) BlockStore {
	if w >= len(c.stores) {
		return nil
	}
	return c.stores[w]
}

// ReplicateOnce performs one round of re-replication synchronously and
// returns the number of blocks copied.  It executes the plan
// UnderReplicated reports under the master's lock: one block-ID-order pass
// plans every copy, a counting sort groups the copies by (source,
// destination) pair, and each pair's blocks move in one CopyBlocks call.
// The grouping changes no result: a block's copies all come from one
// source, which is never a destination of that block in the same round.
// A block whose copy fails keeps its replica bits; the rest of its pair
// is still copied.
func (c *Cluster) ReplicateOnce() int {
	m := c.master
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.workers)
	c.planned = c.planned[:0]
	var buf [maxWorkers]int
	for i := range m.blocks {
		source, dests := m.plan(&m.blocks[i], buf[:0])
		if len(dests) == 0 || c.storeAt(source) == nil {
			continue
		}
		for _, d := range dests {
			if c.storeAt(d) != nil {
				c.planned = append(c.planned, plannedCopy{id: BlockID(i + 1), pair: source*n + d})
			}
		}
	}

	// Counting sort by pair: ends[p] first counts pair p's copies, then
	// (as a running offset) becomes the end of its run in grouped.
	c.ends = slices.Grow(c.ends[:0], n*n)[:n*n]
	clear(c.ends)
	for _, p := range c.planned {
		c.ends[p.pair]++
	}
	start := 0
	for p, cnt := range c.ends {
		c.ends[p] = start
		start += cnt
	}
	c.grouped = slices.Grow(c.grouped[:0], len(c.planned))[:len(c.planned)]
	for _, p := range c.planned {
		c.grouped[c.ends[p.pair]] = p.id
		c.ends[p.pair]++
	}

	copied, begin := 0, 0
	for p, end := range c.ends {
		ids := c.grouped[begin:end]
		begin = end
		if len(ids) == 0 {
			continue
		}
		src, dst, bit := c.stores[p/n], c.stores[p%n], uint64(1)<<(p%n)
		for len(ids) > 0 {
			done, err := dst.CopyBlocks(src, ids)
			for _, id := range ids[:done] {
				b := &m.blocks[id-1]
				b.valid |= bit
				b.held |= bit
			}
			copied += done
			if err == nil || done == len(ids) {
				break
			}
			ids = ids[done+1:] // skip the block that failed
		}
	}
	return copied
}

// Client is a GDFS client bound to one datacenter: writes go to the local
// worker and invalidate the remote replicas.  A Client is safe for
// concurrent use.
type Client struct {
	master *Master
	store  BlockStore // the local worker's
	local  int        // the local worker's index
}

// NewClient returns a client whose local worker is the given one.
func (c *Cluster) NewClient(local WorkerID) (*Client, error) {
	m := c.master
	m.mu.RLock()
	defer m.mu.RUnlock()
	w, ok := m.index[local]
	if !ok || c.storeAt(w) == nil {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, local)
	}
	return &Client{master: m, store: c.stores[w], local: w}, nil
}

// Create adds a file of the given size filled with zeroes, with its primary
// replicas on the client's local worker.
func (cl *Client) Create(path string, size int64) (*FileInfo, error) {
	fi, err := cl.master.Create(path, size, cl.store.ID())
	if err != nil {
		return nil, err
	}
	for i, id := range fi.Blocks {
		if err := cl.store.CreateBlock(id, fi.BlockSizeAt(i)); err != nil {
			return nil, err
		}
	}
	return fi, nil
}

// DirtyBlocks overwrites blocks [from, to) of a file at the local
// datacenter through the write-invalidate protocol: the local replicas
// record the writes, then the master invalidates every other replica of
// those blocks.  fi must come from Create; the writes always cover whole
// blocks, so no remote fetch is ever needed.  This is the emulation's
// dirty-write hot path: one call per file takes each lock once.
func (cl *Client) DirtyBlocks(fi *FileInfo, from, to int) error {
	if from < 0 || from > to || to > len(fi.Blocks) {
		return fmt.Errorf("gdfs: block range [%d, %d) out of range for %s", from, to, fi.Path)
	}
	if err := cl.store.DirtyBlocks(fi, from, to); err != nil {
		return err
	}
	return cl.master.commitWrites(fi.Blocks[from:to], cl.local)
}

// PendingMigrationBytes returns how many bytes of the file would have to be
// shipped to move its workload to the given datacenter right now (the blocks
// whose replica there is stale or missing).
func (cl *Client) PendingMigrationBytes(path string, dest WorkerID) (int64, error) {
	return cl.master.StaleBytesOn(path, dest)
}
