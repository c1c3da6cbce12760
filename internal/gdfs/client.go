package gdfs

import "fmt"

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
	// CopyBlock installs src's replica of the block (re-replication).
	// src is a store of the same kind: a cluster is homogeneous.
	CopyBlock(id BlockID, src BlockStore) error
	// BytesStored returns the total bytes held.
	BytesStored() int64
}

// Cluster bundles a master with the set of workers so clients and
// re-replication can reach every block store.
//
// Lock order is master, then store: ReplicateOnce copies between stores
// while it holds the master's write lock, and every other path holds one
// lock at a time (a dirty write updates the local store, releases it, then
// commits to the master), so nothing waits for the master while holding a
// store.
type Cluster struct {
	master *Master
	stores []BlockStore // indexed by worker index, guarded by master.mu
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
// UnderReplicated reports, planning and copying block by block in one pass
// under the master's lock.
func (c *Cluster) ReplicateOnce() int {
	m := c.master
	m.mu.Lock()
	defer m.mu.Unlock()
	copied := 0
	var buf [maxWorkers]int
	for i := range m.blocks {
		b := &m.blocks[i]
		source, dests := m.plan(b, buf[:0])
		if len(dests) == 0 {
			continue
		}
		src := c.storeAt(source)
		for _, d := range dests {
			dst := c.storeAt(d)
			if src == nil || dst == nil || dst.CopyBlock(BlockID(i+1), src) != nil {
				continue
			}
			b.valid |= 1 << d
			b.held |= 1 << d
			copied++
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
