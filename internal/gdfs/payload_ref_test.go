package gdfs

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// payloadStore is the reference BlockStore the metadata plane is checked
// against: every replica is real bytes.  A created block is all zeros; a
// dirty write stamps the block with its (id, version) — the content the
// metadata plane's dirtyDigest stands for — and zeroes the rest; a copy
// copies the bytes.  A replica's version is read back from its own bytes
// (0 when absent, 1 for a created zero block), so the store keeps no state
// beyond the bytes themselves.
type payloadStore struct {
	id     WorkerID
	mu     sync.RWMutex
	blocks map[BlockID][]byte
	bytes  int64
}

var _ BlockStore = (*payloadStore)(nil)

func newPayloadStore(id WorkerID) *payloadStore {
	return &payloadStore{id: id, blocks: make(map[BlockID][]byte)}
}

func (s *payloadStore) ID() WorkerID { return s.id }

// put installs data as the block's replica.  The caller holds s.mu.
func (s *payloadStore) put(id BlockID, data []byte) {
	s.bytes += int64(len(data)) - int64(len(s.blocks[id]))
	s.blocks[id] = data
}

func (s *payloadStore) CreateBlock(id BlockID, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(id, make([]byte, size))
	return nil
}

// stampVersion decodes the replica's version from its bytes.
func stampVersion(data []byte, ok bool) uint64 {
	if !ok {
		return 0
	}
	if len(data) >= 16 {
		if v := binary.LittleEndian.Uint64(data[8:16]); v != 0 {
			return v
		}
	}
	return 1 // a created, never-written zero block
}

func (s *payloadStore) DirtyBlocks(fi *FileInfo, from, to int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := from; i < to; i++ {
		id, size := fi.Blocks[i], fi.BlockSizeAt(i)
		if size < 16 {
			return fmt.Errorf("payload reference: block %d of %d bytes cannot hold its stamp", id, size)
		}
		old, ok := s.blocks[id]
		v := stampVersion(old, ok) + 1
		data := old
		if int64(len(data)) != size {
			data = make([]byte, size)
		}
		// Every byte past the stamp is zero in every replica, so rewriting
		// the stamp in place yields the whole new content.
		binary.LittleEndian.PutUint64(data[0:8], uint64(id))
		binary.LittleEndian.PutUint64(data[8:16], v)
		s.put(id, data)
	}
	return nil
}

// CopyBlocks holds the source's and the destination's locks together for
// the whole batch.  This cannot deadlock: every batch runs inside
// ReplicateOnce under the master's write lock, so no two batches overlap,
// and no other path takes a second store lock while it holds one (lock
// order master, then store).
func (s *payloadStore) CopyBlocks(src BlockStore, ids []BlockID) (int, error) {
	psrc := src.(*payloadStore)
	psrc.mu.RLock()
	defer psrc.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		data, ok := psrc.blocks[id]
		if !ok {
			return i, fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, psrc.id)
		}
		dst := s.blocks[id]
		if len(dst) != len(data) {
			dst = make([]byte, len(data))
		}
		copy(dst, data)
		s.put(id, dst)
	}
	return len(ids), nil
}

func (s *payloadStore) BytesStored() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// block returns the replica's bytes, valid until the store's next write.
func (s *payloadStore) block(id BlockID) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.blocks[id]
	return data, ok
}
