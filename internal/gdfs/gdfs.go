// Package gdfs implements GreenNebula's multi-datacenter distributed file
// system (GDFS), described in Section V-A of the paper.
//
// The design follows HDFS — a single master holds the namespace and block
// metadata, workers (one or more per datacenter) store replicas of data
// blocks — but, unlike HDFS, files are mutable.  Writes go to the local
// replica and invalidate the remote replicas by updating the metadata at the
// master; invalidated blocks are re-replicated in the background.  This keeps
// write latency low while still allowing a virtual machine to migrate
// between datacenters: only the recently modified blocks that have not been
// re-replicated yet need to move with it.
package gdfs

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// DefaultBlockSize is the block size used when a file is created without an
// explicit size (4 MiB keeps the emulation fast while remaining realistic).
const DefaultBlockSize = 4 << 20

// DefaultReplication is the target number of valid replicas per block.
const DefaultReplication = 2

// BlockID identifies a block globally.
type BlockID int64

// WorkerID identifies a worker (one per datacenter in the emulation).
type WorkerID string

// Errors returned by the master and clients.
var (
	ErrFileExists     = errors.New("gdfs: file already exists")
	ErrFileNotFound   = errors.New("gdfs: file not found")
	ErrBlockNotFound  = errors.New("gdfs: block not found")
	ErrWorkerNotFound = errors.New("gdfs: worker not registered")
)

// BlockInfo is the master's replica state of one block.
type BlockInfo struct {
	// Valid lists workers holding an up-to-date replica.
	Valid []WorkerID
	// Stale lists workers holding an invalidated replica.
	Stale []WorkerID
}

// FileInfo is the namespace entry for one file.
type FileInfo struct {
	Path      string
	Size      int64
	BlockSize int64
	Blocks    []BlockID
}

// BlockSizeAt returns the size of block index i (the last block of a file
// whose size is not a multiple of BlockSize is shorter).
func (fi *FileInfo) BlockSizeAt(i int) int64 {
	if i == len(fi.Blocks)-1 && fi.Size%fi.BlockSize != 0 {
		return fi.Size % fi.BlockSize
	}
	return fi.BlockSize
}

// maxWorkers bounds the workers of one master: replica sets are bitmasks
// over a worker index assigned at registration.
const maxWorkers = 64

// Master holds the namespace and block metadata and plans re-replication.
type Master struct {
	mu          sync.RWMutex
	files       map[string]*FileInfo
	blocks      []blockMeta // indexed by BlockID-1
	replication int

	// workers maps a worker index to its ID, index maps it back, and
	// sorted lists the indices in worker-ID order, the order every replica
	// listing and re-replication plan follows.
	workers []WorkerID
	index   map[WorkerID]int
	sorted  []int
}

// blockMeta is one block's replica state: bit w of held is set when worker
// index w holds a replica, and of valid when that replica is up to date
// (valid is a subset of held).
type blockMeta struct {
	size        int64
	valid, held uint64
}

// NewMaster returns a master with the given target replication factor
// (DefaultReplication if zero or negative).
func NewMaster(replication int) *Master {
	if replication <= 0 {
		replication = DefaultReplication
	}
	return &Master{
		files:       make(map[string]*FileInfo),
		index:       make(map[WorkerID]int),
		replication: replication,
	}
}

// RegisterWorker adds a worker to the cluster.  A master holds at most 64
// workers, each registered once.
func (m *Master) RegisterWorker(id WorkerID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index[id]; ok {
		return fmt.Errorf("gdfs: worker %s already registered", id)
	}
	if len(m.workers) == maxWorkers {
		return fmt.Errorf("gdfs: cannot register worker %s: a master holds at most %d workers", id, maxWorkers)
	}
	w := len(m.workers)
	m.workers = append(m.workers, id)
	m.index[id] = w
	m.sorted = append(m.sorted, w)
	sort.Slice(m.sorted, func(i, j int) bool { return m.workers[m.sorted[i]] < m.workers[m.sorted[j]] })
	return nil
}

// block returns the metadata of a block.  The caller holds m.mu.
func (m *Master) block(id BlockID) (*blockMeta, error) {
	if id < 1 || int64(id) > int64(len(m.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	return &m.blocks[id-1], nil
}

// Create adds a file of the given size to the namespace, allocating blocks
// whose primary replica lives on the given worker.
func (m *Master) Create(path string, size int64, primary WorkerID) (*FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	w, ok := m.index[primary]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, primary)
	}
	if size < 0 {
		return nil, fmt.Errorf("gdfs: negative file size %d", size)
	}
	blockSize := int64(DefaultBlockSize)
	nBlocks := int((size + blockSize - 1) / blockSize)
	fi := &FileInfo{Path: path, Size: size, BlockSize: blockSize}
	for i := 0; i < nBlocks; i++ {
		bSize := blockSize
		if i == nBlocks-1 && size%blockSize != 0 {
			bSize = size % blockSize
		}
		m.blocks = append(m.blocks, blockMeta{size: bSize, valid: 1 << w, held: 1 << w})
		fi.Blocks = append(fi.Blocks, BlockID(len(m.blocks)))
	}
	m.files[path] = fi
	return cloneFileInfo(fi), nil
}

// BlockLocations reports the block's replica state.
func (m *Master) BlockLocations(id BlockID) (*BlockInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, err := m.block(id)
	if err != nil {
		return nil, err
	}
	info := &BlockInfo{}
	for _, w := range m.sorted {
		switch bit := uint64(1) << w; {
		case b.valid&bit != 0:
			info.Valid = append(info.Valid, m.workers[w])
		case b.held&bit != 0:
			info.Stale = append(info.Stale, m.workers[w])
		}
	}
	return info, nil
}

// commitWrites records that blocks were written on worker index w: per
// block, that replica becomes the only valid one and every other replica is
// invalidated (the write-invalidate protocol of the paper).
func (m *Master) commitWrites(ids []BlockID, w int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		b, err := m.block(id)
		if err != nil {
			return err
		}
		b.valid = 1 << w
		b.held |= 1 << w
	}
	return nil
}

// ReplicationTask asks a destination worker to copy a block from a source.
type ReplicationTask struct {
	Block  BlockID
	Source WorkerID
	Dest   WorkerID
}

// plan appends to dests the worker indices that should receive a copy of a
// block, in preference order, and returns the source to copy from.  A
// block needs copies when it has at least one valid replica (someone to
// copy from) but fewer than the target.  The source is the first valid
// holder in worker-ID order; destinations that already hold a stale
// replica come first (they are the cheapest to refresh), then workers that
// hold no replica, each group in worker-ID order.  The caller holds m.mu.
func (m *Master) plan(b *blockMeta, dests []int) (int, []int) {
	valid := bits.OnesCount64(b.valid)
	if valid == 0 || valid >= m.replication {
		return -1, dests
	}
	need := len(dests) + m.replication - valid
	source := -1
	for _, w := range m.sorted {
		if b.valid&(1<<w) != 0 {
			source = w
			break
		}
	}
	for _, set := range [2]uint64{b.held &^ b.valid, ^b.held} { // stale holders, then the rest
		for _, w := range m.sorted {
			if len(dests) == need {
				return source, dests
			}
			if set&(1<<w) != 0 {
				dests = append(dests, w)
			}
		}
	}
	return source, dests
}

// UnderReplicated returns the re-replication plan ReplicateOnce would
// execute right now: for every block, in block-ID order, the copies that
// bring it back to the target replication.
func (m *Master) UnderReplicated() []ReplicationTask {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var tasks []ReplicationTask
	var buf [maxWorkers]int
	for i := range m.blocks {
		source, dests := m.plan(&m.blocks[i], buf[:0])
		for _, d := range dests {
			tasks = append(tasks, ReplicationTask{Block: BlockID(i + 1), Source: m.workers[source], Dest: m.workers[d]})
		}
	}
	return tasks
}

// StaleBytesOn returns the bytes of a file whose replica on the given worker
// is stale or missing — exactly the data a VM migration must ship.  It is
// the allocation-free path behind Client.PendingMigrationBytes, safe to call
// concurrently from the migration pipeline's shards.
func (m *Master) StaleBytesOn(path string, worker WorkerID) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	var bit uint64 // an unregistered worker holds nothing
	if w, ok := m.index[worker]; ok {
		bit = 1 << w
	}
	var bytes int64
	for _, id := range fi.Blocks {
		if b := &m.blocks[id-1]; b.valid&bit == 0 {
			bytes += b.size
		}
	}
	return bytes, nil
}

func cloneFileInfo(fi *FileInfo) *FileInfo {
	out := *fi
	out.Blocks = make([]BlockID, len(fi.Blocks))
	copy(out.Blocks, fi.Blocks)
	return &out
}
