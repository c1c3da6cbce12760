// Package series is the dense numeric layer under the provisioning
// pipeline: an epoch-major matrix type (Block) and a small set of fused
// element-wise kernels that the catalog's site profiles, the siting
// evaluator and the scheduler all share, so the same multiply-add dialect
// is written (and optimized) exactly once.
//
// # Layout
//
// A Block stores rows × epochs float64 values in one contiguous backing
// slice, epoch-major: row r occupies data[r*epochs : (r+1)*epochs], and
// consecutive epochs of one row are adjacent in memory.  This is the layout
// every hot loop in the repository iterates in (site-by-site over a year of
// epochs), so row kernels stream linearly through memory and are the natural
// unit for future SIMD work.
//
// # Aliasing and mutability contract
//
// Row returns a sub-slice of the Block's backing array with its capacity
// clipped to the row boundary (a full slice expression), so a kernel writing
// through one row can never spill into the next even via append or
// re-slicing.  Two distinct rows of the same Block never overlap.  Beyond
// that the package distinguishes two uses:
//
//   - Shared read-only Blocks (a location catalog's α/β/PUE profiles,
//     whose rows are its sites' Alpha/Beta/PUE): built once, then handed
//     out by reference to any number of concurrent readers.  Nobody may
//     write to them after construction; this is a documentation contract,
//     not an enforced one, exactly like an unexported map shared by value.
//   - Scratch Blocks (the evaluator's compute/migration/demand matrices):
//     owned by a single goroutine, resized with Reshape between uses, and
//     freely written through Row.  Reshape reuses the backing array when it
//     is large enough and leaves the contents unspecified — callers must
//     overwrite every element they read (all current users start with Zero
//     or a full-row kernel write).
//
// # Adding a kernel without breaking bounds-check elimination
//
// The kernels are written so the Go compiler proves every index in range
// once, before the loop, instead of per element.  When adding one, follow
// the existing shape:
//
//   - take dst first and derive the trip count from len(dst);
//   - pin every input with s = s[:n] (or s[:n:n]) against that count before
//     the loop — the explicit re-slice is the bounds proof, and it turns a
//     length mismatch into a loud panic at the call site;
//   - index every slice with the same induction variable (for i := range
//     dst), no interface indirection, no function-valued parameters;
//   - add the kernel to the differential suite in series_test.go, which
//     pins it bit-identical to a naive scalar reference over randomized
//     shapes (including zero-length and single-epoch rows).
//
// Check `go build -gcflags=-d=ssa/check_bce ./internal/series/` when
// touching a kernel: it must report no bounds checks inside loops.
package series

// Block is a dense rows × epochs matrix of float64, epoch-major and
// contiguous.  The zero value is an empty Block ready for Reshape.
type Block struct {
	rows   int
	epochs int
	data   []float64
}

// NewBlock returns a zeroed rows × epochs Block.
func NewBlock(rows, epochs int) Block {
	var b Block
	b.Reshape(rows, epochs)
	Zero(b.data)
	return b
}

// Reshape resizes the Block to rows × epochs, reusing the backing array
// when it is large enough (the scratch-reuse contract of the evaluator: a
// steady-state Reshape performs no allocation).  The contents after Reshape
// are unspecified; callers must overwrite every element they read.
func (b *Block) Reshape(rows, epochs int) {
	n := rows * epochs
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	b.data = b.data[:n]
	b.rows, b.epochs = rows, epochs
}

// Row returns row r as a slice aliasing the Block's backing array.  The
// slice's capacity is clipped to the row boundary, so writes (and appends)
// through it can never touch a neighbouring row.
func (b *Block) Row(r int) []float64 {
	lo := r * b.epochs
	hi := lo + b.epochs
	return b.data[lo:hi:hi]
}

// Data returns the whole backing slice (rows × epochs values, row r at
// [r*epochs, (r+1)*epochs)).  Useful for whole-matrix operations like Zero;
// the aliasing contract of Row applies to it unchanged.
func (b *Block) Data() []float64 { return b.data }
