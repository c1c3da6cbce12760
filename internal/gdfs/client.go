package gdfs

import (
	"fmt"
	"sync"
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
	// DirtyBlock records a whole-block overwrite of the given size.
	DirtyBlock(id BlockID, size int64) error
	// CopyBlock installs src's replica of the block (re-replication).
	// src is a store of the same kind: a cluster is homogeneous.
	CopyBlock(id BlockID, src BlockStore) error
	// BytesStored returns the total bytes held.
	BytesStored() int64
}

// Cluster bundles a master with the set of workers so clients and
// re-replication can reach every block store.
type Cluster struct {
	master *Master

	mu     sync.RWMutex
	stores map[WorkerID]BlockStore
}

// NewCluster returns a cluster around the given master.
func NewCluster(master *Master) *Cluster {
	return &Cluster{master: master, stores: make(map[WorkerID]BlockStore)}
}

// Master exposes the cluster's master.
func (c *Cluster) Master() *Master { return c.master }

// AddWorker registers a block store with the master and the cluster.
func (c *Cluster) AddWorker(store BlockStore, datacenter string) error {
	if err := c.master.RegisterWorker(store.ID(), datacenter); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores[store.ID()] = store
	return nil
}

// store returns the block store for a worker.
func (c *Cluster) store(id WorkerID) (BlockStore, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stores[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, id)
	}
	return s, nil
}

// ReplicateOnce performs one round of re-replication synchronously and
// returns the number of blocks copied.
func (c *Cluster) ReplicateOnce() int {
	tasks := c.master.UnderReplicated()
	copied := 0
	for _, task := range tasks {
		if err := c.copyBlock(task.Block, task.Source, task.Dest); err != nil {
			continue
		}
		copied++
	}
	return copied
}

// copyBlock copies one block between workers and commits the new replica.
func (c *Cluster) copyBlock(id BlockID, from, to WorkerID) error {
	src, err := c.store(from)
	if err != nil {
		return err
	}
	dst, err := c.store(to)
	if err != nil {
		return err
	}
	if err := dst.CopyBlock(id, src); err != nil {
		return err
	}
	return c.master.CommitReplica(id, to)
}

// Client is a GDFS client bound to one datacenter: writes go to the local
// worker and invalidate the remote replicas.  A Client is safe for
// concurrent use.
type Client struct {
	cluster *Cluster
	local   WorkerID
}

// NewClient returns a client whose local worker is the given one.
func (c *Cluster) NewClient(local WorkerID) (*Client, error) {
	if _, err := c.store(local); err != nil {
		return nil, err
	}
	return &Client{cluster: c, local: local}, nil
}

// Create adds a file of the given size filled with zeroes, with its primary
// replicas on the client's local worker.
func (cl *Client) Create(path string, size int64) (*FileInfo, error) {
	fi, err := cl.cluster.master.Create(path, size, cl.local)
	if err != nil {
		return nil, err
	}
	store, err := cl.cluster.store(cl.local)
	if err != nil {
		return nil, err
	}
	for i, id := range fi.Blocks {
		if err := store.CreateBlock(id, fi.BlockSizeAt(i)); err != nil {
			return nil, err
		}
	}
	return fi, nil
}

// DirtyBlock overwrites one whole block of a file at the local datacenter
// through the write-invalidate protocol: the local replica records the
// write, then the master invalidates every other replica.  fi must come
// from Create or Stat; the write always covers the whole block, so no
// remote fetch is ever needed.  This is the emulation's dirty-write hot
// path.
func (cl *Client) DirtyBlock(fi *FileInfo, index int) error {
	if index < 0 || index >= len(fi.Blocks) {
		return fmt.Errorf("gdfs: block index %d out of range for %s", index, fi.Path)
	}
	id := fi.Blocks[index]
	store, err := cl.cluster.store(cl.local)
	if err != nil {
		return err
	}
	if err := store.DirtyBlock(id, fi.BlockSizeAt(index)); err != nil {
		return err
	}
	return cl.cluster.master.CommitWrite(id, cl.local)
}

// PendingMigrationBytes returns how many bytes of the file would have to be
// shipped to move its workload to the given datacenter right now (the blocks
// whose replica there is stale or missing).
func (cl *Client) PendingMigrationBytes(path string, dest WorkerID) (int64, error) {
	return cl.cluster.master.StaleBytesOn(path, dest)
}
