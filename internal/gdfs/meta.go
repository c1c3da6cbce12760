package gdfs

import (
	"fmt"
	"sync"
)

// BlockMeta is a block replica reduced to scalars.  Two replicas hold the
// same content iff their BlockMeta are equal: every mutation bumps Version,
// and Digest is a deterministic function of the content — for a synthetic
// dirty write, whose content is defined by the block identity and version,
// a function of those two.
type BlockMeta struct {
	Version uint64
	Length  int64
	Digest  uint64
}

// MetaWorker is GDFS's block store: a replica is a BlockMeta record instead
// of a byte slice, and BytesStored is maintained arithmetically.  Every
// externally visible counter (BytesStored, replica sets, staleness,
// re-replication plans, pending-migration bytes) matches a store of real
// payload bytes driven through the same operations — pinned by
// TestMetaPayloadEquivalence against a test-only payload reference.
type MetaWorker struct {
	id    WorkerID
	mu    sync.RWMutex
	meta  map[BlockID]BlockMeta
	bytes int64
}

var _ BlockStore = (*MetaWorker)(nil)

// NewMetaWorker returns an empty metadata-plane worker.
func NewMetaWorker(id WorkerID) *MetaWorker {
	return &MetaWorker{id: id, meta: make(map[BlockID]BlockMeta)}
}

// ID returns the worker's identity.
func (w *MetaWorker) ID() WorkerID { return w.id }

// dirtyDigest synthesizes the digest of a metadata-only whole-block
// overwrite.  Replicas produced by copying this version carry the same
// digest, so "same digest ⇔ same content" is preserved without bytes.
func dirtyDigest(id BlockID, version uint64) uint64 {
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	h ^= version * 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// zeroDigest is the digest of a never-written all-zero block of the given
// size.
func zeroDigest(size int64) uint64 { return uint64(size) * 0xc2b2ae3d27d4eb4f }

// put installs a replica record, accounting the bytes arithmetically.
// The caller holds w.mu.
func (w *MetaWorker) put(id BlockID, m BlockMeta) {
	w.bytes += m.Length - w.meta[id].Length
	w.meta[id] = m
}

// CreateBlock registers a fresh all-zero block of the given size.
func (w *MetaWorker) CreateBlock(id BlockID, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.put(id, BlockMeta{Version: w.meta[id].Version + 1, Length: size, Digest: zeroDigest(size)})
	return nil
}

// DirtyBlock records a whole-block overwrite of the given size without any
// payload: version bump plus a synthetic content digest.
func (w *MetaWorker) DirtyBlock(id BlockID, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.meta[id].Version + 1
	w.put(id, BlockMeta{Version: v, Length: size, Digest: dirtyDigest(id, v)})
	return nil
}

// CopyBlock installs src's replica record of the block.  src must be a
// MetaWorker.
func (w *MetaWorker) CopyBlock(id BlockID, src BlockStore) error {
	msrc, ok := src.(*MetaWorker)
	if !ok {
		return fmt.Errorf("gdfs: worker %s cannot copy block %d from a %T", w.id, id, src)
	}
	m, ok := msrc.BlockMeta(id)
	if !ok {
		return fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, msrc.id)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.put(id, m)
	return nil
}

// BlockMeta returns the replica's metadata record.
func (w *MetaWorker) BlockMeta(id BlockID) (BlockMeta, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	m, ok := w.meta[id]
	return m, ok
}

// BytesStored returns the total bytes the worker accounts for.
func (w *MetaWorker) BytesStored() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.bytes
}
