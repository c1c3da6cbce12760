package lp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Basis snapshot encoding.  A warm-start Basis is keyed by model-level
// column identities (see basis.go), which makes it meaningful across
// process restarts: a daemon that persists the basis of its last healthy
// solve can re-install it on a freshly rebuilt Problem of the same model
// and resume warm instead of cold.  The encoding is a small, versioned,
// checksummed binary format:
//
//	magic "GNB1"
//	uvarint nRows,   then per row:    kind byte, uvarint idx
//	uvarint nUpper,  then per entry:  kind byte, uvarint idx
//	uvarint nDevex,  then per entry:  kind byte, uvarint idx, float64 bits (LE)
//	8-byte FNV-1a 64 checksum of everything above
//
// DecodeBasis validates the magic, the checksum, every identity kind, that
// every varint is minimally encoded, the finiteness of every devex weight
// and that the buffer is consumed exactly, so anything it accepts
// re-encodes to the same bytes and a truncated or corrupted snapshot is
// rejected with ErrBasisEncoding rather than installed; and because
// installBasis re-validates identities against the live model anyway, even
// a stale-but-well-formed basis can cost at most a cold fallback, never
// correctness.

// ErrBasisEncoding is returned by DecodeBasis for data that is not a valid
// basis snapshot (wrong magic, truncation, checksum mismatch, out-of-range
// identity kinds or non-finite weights).
var ErrBasisEncoding = errors.New("lp: invalid basis encoding")

// basisMagic versions the snapshot format; bump it on layout changes so an
// old daemon snapshot decodes to a clean error instead of garbage.
var basisMagic = [4]byte{'G', 'N', 'B', '1'}

// AppendBinary appends the basis's persistent encoding to dst, so a caller
// that persists a basis every tick can reuse one buffer.  The encoding is
// deterministic: the same Basis always yields the same bytes.  On error dst
// is returned unchanged.
func (b *Basis) AppendBinary(dst []byte) ([]byte, error) {
	if b == nil {
		return dst, fmt.Errorf("%w: nil basis", ErrBasisEncoding)
	}
	if len(b.devexCols) != len(b.devexW) {
		return dst, fmt.Errorf("%w: devex identity/weight length mismatch", ErrBasisEncoding)
	}
	start := len(dst)
	buf := append(dst, basisMagic[:]...)
	buf = appendIdents(buf, b.cols)
	buf = appendIdents(buf, b.upper)
	buf = binary.AppendUvarint(buf, uint64(len(b.devexCols)))
	for k, cid := range b.devexCols {
		if math.IsInf(b.devexW[k], 0) || math.IsNaN(b.devexW[k]) {
			return buf[:start], fmt.Errorf("%w: non-finite devex weight", ErrBasisEncoding)
		}
		buf = appendIdent(buf, cid)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.devexW[k]))
	}
	return binary.BigEndian.AppendUint64(buf, fnv64a(buf[start:])), nil
}

// fnv64a is FNV-1a 64 (hash/fnv's New64a) without the hash.Hash
// allocation, so AppendBinary stays allocation-free.
func fnv64a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range data {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// DecodeBasis decodes a snapshot produced by AppendBinary.  The returned
// Basis is freshly allocated (it never aliases data) and ready for
// SolveFrom; invalid input returns an error wrapping ErrBasisEncoding.
func DecodeBasis(data []byte) (*Basis, error) {
	if len(data) < len(basisMagic)+8 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBasisEncoding, len(data))
	}
	if [4]byte(data[:4]) != basisMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBasisEncoding)
	}
	payload, sum := data[:len(data)-8], data[len(data)-8:]
	if binary.BigEndian.Uint64(sum) != fnv64a(payload) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBasisEncoding)
	}
	r := payload[4:]
	b := &Basis{}
	var err error
	if b.cols, r, err = decodeIdents(r); err != nil {
		return nil, err
	}
	if b.upper, r, err = decodeIdents(r); err != nil {
		return nil, err
	}
	nDevex, r, err := decodeCount(r, 9) // kind + idx + 8 weight bytes
	if err != nil {
		return nil, err
	}
	if nDevex > 0 {
		b.devexCols = make([]colIdent, nDevex)
		b.devexW = make([]float64, nDevex)
		for k := 0; k < nDevex; k++ {
			if b.devexCols[k], r, err = decodeIdent(r); err != nil {
				return nil, err
			}
			if len(r) < 8 {
				return nil, fmt.Errorf("%w: truncated devex weight", ErrBasisEncoding)
			}
			w := math.Float64frombits(binary.LittleEndian.Uint64(r))
			r = r[8:]
			if math.IsInf(w, 0) || math.IsNaN(w) {
				return nil, fmt.Errorf("%w: non-finite devex weight", ErrBasisEncoding)
			}
			b.devexW[k] = w
		}
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBasisEncoding, len(r))
	}
	return b, nil
}

func appendIdents(buf []byte, ids []colIdent) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, cid := range ids {
		buf = appendIdent(buf, cid)
	}
	return buf
}

func appendIdent(buf []byte, cid colIdent) []byte {
	buf = append(buf, byte(cid.kind))
	return binary.AppendUvarint(buf, uint64(cid.idx))
}

// decodeCount reads a length prefix and sanity-checks it against the bytes
// remaining (each encoded entry occupies at least minEntryBytes), so a
// corrupted length cannot drive a huge allocation.
func decodeCount(r []byte, minEntryBytes int) (int, []byte, error) {
	v, n := uvarint(r)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad length prefix", ErrBasisEncoding)
	}
	r = r[n:]
	if v > uint64(len(r)/minEntryBytes)+1 || v > math.MaxInt32 {
		return 0, nil, fmt.Errorf("%w: implausible entry count %d", ErrBasisEncoding, v)
	}
	return int(v), r, nil
}

// uvarint is binary.Uvarint restricted to the minimal encoding AppendUvarint
// writes (a multi-byte varint never ends in a zero byte), so every accepted
// input re-encodes to the bytes it was decoded from.
func uvarint(r []byte) (uint64, int) {
	v, n := binary.Uvarint(r)
	if n > 1 && r[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

func decodeIdents(r []byte) ([]colIdent, []byte, error) {
	n, r, err := decodeCount(r, 2) // kind byte + ≥1 idx byte
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, r, nil
	}
	ids := make([]colIdent, n)
	for i := 0; i < n; i++ {
		if ids[i], r, err = decodeIdent(r); err != nil {
			return nil, nil, err
		}
	}
	return ids, r, nil
}

func decodeIdent(r []byte) (colIdent, []byte, error) {
	if len(r) < 2 {
		return colIdent{}, nil, fmt.Errorf("%w: truncated identity", ErrBasisEncoding)
	}
	kind := int8(r[0])
	if kind < identStruct || kind > identArt {
		return colIdent{}, nil, fmt.Errorf("%w: unknown identity kind %d", ErrBasisEncoding, kind)
	}
	idx, n := uvarint(r[1:])
	if n <= 0 || idx > math.MaxInt32 {
		return colIdent{}, nil, fmt.Errorf("%w: bad identity index", ErrBasisEncoding)
	}
	return colIdent{kind: kind, idx: int(idx)}, r[1+n:], nil
}
