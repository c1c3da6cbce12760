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
	mu    sync.Mutex
	meta  []BlockMeta // indexed by BlockID; Version 0 means no replica
	bytes int64
}

var _ BlockStore = (*MetaWorker)(nil)

// NewMetaWorker returns an empty metadata-plane worker.
func NewMetaWorker(id WorkerID) *MetaWorker {
	return &MetaWorker{id: id}
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
	if n := int(id) + 1 - len(w.meta); n > 0 {
		w.meta = append(w.meta, make([]BlockMeta, n)...)
	}
	w.bytes += m.Length - w.meta[id].Length
	w.meta[id] = m
}

// get returns the replica record of a block, the zero BlockMeta if the
// worker holds none.  The caller holds w.mu.
func (w *MetaWorker) get(id BlockID) BlockMeta {
	if id < 0 || int64(id) >= int64(len(w.meta)) {
		return BlockMeta{}
	}
	return w.meta[id]
}

// CreateBlock registers a fresh all-zero block of the given size.
func (w *MetaWorker) CreateBlock(id BlockID, size int64) error {
	if id < 1 {
		return fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.put(id, BlockMeta{Version: w.get(id).Version + 1, Length: size, Digest: zeroDigest(size)})
	return nil
}

// DirtyBlocks records whole-block overwrites of blocks [from, to) of a file
// without any payload: per block, a version bump plus a synthetic content
// digest.
func (w *MetaWorker) DirtyBlocks(fi *FileInfo, from, to int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := from; i < to; i++ {
		id := fi.Blocks[i]
		v := w.get(id).Version + 1
		w.put(id, BlockMeta{Version: v, Length: fi.BlockSizeAt(i), Digest: dirtyDigest(id, v)})
	}
	return nil
}

// CopyBlocks installs src's replica records of the blocks, in order,
// holding src's lock and then w's once for the whole batch.  src must be
// another MetaWorker.  It stops at the first block src holds no replica of.
func (w *MetaWorker) CopyBlocks(src BlockStore, ids []BlockID) (int, error) {
	msrc, ok := src.(*MetaWorker)
	if !ok || msrc == w {
		return 0, fmt.Errorf("gdfs: worker %s cannot copy blocks from a %T that is not another MetaWorker", w.id, src)
	}
	msrc.mu.Lock()
	defer msrc.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, id := range ids {
		m := msrc.get(id)
		if m.Version == 0 {
			return i, fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, msrc.id)
		}
		w.put(id, m)
	}
	return len(ids), nil
}

// BlockMeta returns the replica's metadata record.
func (w *MetaWorker) BlockMeta(id BlockID) (BlockMeta, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.get(id)
	return m, m.Version != 0
}

// BytesStored returns the total bytes the worker accounts for.
func (w *MetaWorker) BytesStored() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}
