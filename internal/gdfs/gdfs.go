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
	"sort"
	"sync"
	"time"
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

// BlockInfo is the master's metadata for one block.
type BlockInfo struct {
	ID   BlockID
	Size int64
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
	Modified  time.Time
}

// BlockSizeAt returns the size of block index i (the last block of a file
// whose size is not a multiple of BlockSize is shorter).
func (fi *FileInfo) BlockSizeAt(i int) int64 {
	if i == len(fi.Blocks)-1 && fi.Size%fi.BlockSize != 0 {
		return fi.Size % fi.BlockSize
	}
	return fi.BlockSize
}

// Master holds the namespace and block metadata and plans re-replication.
type Master struct {
	mu          sync.RWMutex
	files       map[string]*FileInfo
	blocks      map[BlockID]*blockMeta
	workers     map[WorkerID]*workerMeta
	nextBlockID BlockID
	replication int
	now         func() time.Time

	// under indexes the blocks with at least one but fewer than
	// `replication` valid replicas, so UnderReplicated plans over just
	// those instead of scanning every block in the namespace.
	under map[BlockID]struct{}
	// workerList caches the sorted worker IDs (registration is rare,
	// planning is hot).
	workerList []WorkerID

	// Planner scratch, reused across UnderReplicated calls (guarded by mu).
	idScratch   []BlockID
	destScratch []WorkerID
	taskScratch []ReplicationTask
}

type blockMeta struct {
	id       BlockID
	size     int64
	replicas map[WorkerID]bool // true = valid, false = stale
}

type workerMeta struct {
	id WorkerID
	// datacenter groups workers for placement decisions.
	datacenter string
}

// NewMaster returns a master with the given target replication factor
// (DefaultReplication if zero or negative).
func NewMaster(replication int) *Master {
	if replication <= 0 {
		replication = DefaultReplication
	}
	return &Master{
		files:       make(map[string]*FileInfo),
		blocks:      make(map[BlockID]*blockMeta),
		workers:     make(map[WorkerID]*workerMeta),
		under:       make(map[BlockID]struct{}),
		replication: replication,
		now:         time.Now,
	}
}

// updateUnder reconciles the under-replication index for one block: a block
// is under-replicated when it has at least one valid replica (someone to
// copy from) but fewer than the target.
func (m *Master) updateUnder(b *blockMeta) {
	valid := 0
	for _, v := range b.replicas {
		if v {
			valid++
		}
	}
	if valid >= 1 && valid < m.replication {
		m.under[b.id] = struct{}{}
	} else {
		delete(m.under, b.id)
	}
}

// RegisterWorker adds a worker to the cluster.
func (m *Master) RegisterWorker(id WorkerID, datacenter string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[id]; !ok {
		m.workerList = append(m.workerList, id)
		sort.Slice(m.workerList, func(i, j int) bool { return m.workerList[i] < m.workerList[j] })
	}
	m.workers[id] = &workerMeta{id: id, datacenter: datacenter}
	return nil
}

// Create adds a file of the given size to the namespace, allocating blocks
// whose primary replica lives on the given worker.
func (m *Master) Create(path string, size int64, primary WorkerID) (*FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	if _, ok := m.workers[primary]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, primary)
	}
	if size < 0 {
		return nil, fmt.Errorf("gdfs: negative file size %d", size)
	}
	blockSize := int64(DefaultBlockSize)
	nBlocks := int((size + blockSize - 1) / blockSize)
	fi := &FileInfo{Path: path, Size: size, BlockSize: blockSize, Modified: m.now()}
	for i := 0; i < nBlocks; i++ {
		bSize := blockSize
		if i == nBlocks-1 && size%blockSize != 0 {
			bSize = size % blockSize
		}
		m.nextBlockID++
		id := m.nextBlockID
		b := &blockMeta{id: id, size: bSize, replicas: map[WorkerID]bool{primary: true}}
		m.blocks[id] = b
		m.updateUnder(b)
		fi.Blocks = append(fi.Blocks, id)
	}
	m.files[path] = fi
	return cloneFileInfo(fi), nil
}

// BlockLocations reports the block's replica state.
func (m *Master) BlockLocations(id BlockID) (*BlockInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.blockLocationsLocked(id)
}

func (m *Master) blockLocationsLocked(id BlockID) (*BlockInfo, error) {
	b, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	info := &BlockInfo{ID: id, Size: b.size}
	for w, valid := range b.replicas {
		if valid {
			info.Valid = append(info.Valid, w)
		} else {
			info.Stale = append(info.Stale, w)
		}
	}
	sort.Slice(info.Valid, func(i, j int) bool { return info.Valid[i] < info.Valid[j] })
	sort.Slice(info.Stale, func(i, j int) bool { return info.Stale[i] < info.Stale[j] })
	return info, nil
}

// CommitWrite records that a block was written on the given worker: that
// replica becomes the only valid one and every other replica is invalidated
// (the write-invalidate protocol of the paper).
func (m *Master) CommitWrite(id BlockID, writer WorkerID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blocks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	if _, ok := m.workers[writer]; !ok {
		return fmt.Errorf("%w: %s", ErrWorkerNotFound, writer)
	}
	for w := range b.replicas {
		b.replicas[w] = false
	}
	b.replicas[writer] = true
	m.updateUnder(b)
	return nil
}

// CommitReplica records that a worker now holds a valid copy of a block
// (used after re-replication or a migration prefetch).
func (m *Master) CommitReplica(id BlockID, holder WorkerID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blocks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	if _, ok := m.workers[holder]; !ok {
		return fmt.Errorf("%w: %s", ErrWorkerNotFound, holder)
	}
	b.replicas[holder] = true
	m.updateUnder(b)
	return nil
}

// ReplicationTask asks a destination worker to copy a block from a source.
type ReplicationTask struct {
	Block  BlockID
	Source WorkerID
	Dest   WorkerID
}

// UnderReplicated returns the blocks with fewer valid replicas than the
// target, together with a plan of copies that would fix them.  The planner
// prefers destinations that already hold a stale replica (they are the
// cheapest to refresh) and otherwise picks workers that hold no replica.
// It iterates only the under-replication index, not the whole namespace.
// The returned slice is scratch owned by the master, valid until the next
// UnderReplicated call.
func (m *Master) UnderReplicated() []ReplicationTask {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.idScratch[:0]
	for id := range m.under {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	m.idScratch = ids

	tasks := m.taskScratch[:0]
	for _, id := range ids {
		b := m.blocks[id]
		// The index guarantees 1 <= valid < replication.
		valid := 0
		var source WorkerID
		dests := m.destScratch[:0]
		for _, w := range m.workerList { // stale holders first (cheapest refresh)
			v, ok := b.replicas[w]
			switch {
			case ok && v:
				if valid == 0 {
					source = w
				}
				valid++
			case ok:
				dests = append(dests, w)
			}
		}
		for _, w := range m.workerList { // then workers holding no replica
			if _, ok := b.replicas[w]; !ok {
				dests = append(dests, w)
			}
		}
		m.destScratch = dests
		need := m.replication - valid
		for i := 0; i < need && i < len(dests); i++ {
			tasks = append(tasks, ReplicationTask{Block: id, Source: source, Dest: dests[i]})
		}
	}
	m.taskScratch = tasks
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
	var bytes int64
	for _, id := range fi.Blocks {
		b := m.blocks[id]
		if valid, ok := b.replicas[worker]; !ok || !valid {
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
