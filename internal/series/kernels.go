package series

import "math"

// The kernels below are the shared loop dialect of the provisioning
// pipeline: every element-wise pass over a site's per-epoch profile rows,
// internal/core, internal/energy and internal/sched goes through one of
// them.  They all derive the trip count from dst (or the first operand) and
// pin every other slice with an explicit re-slice so the compiler hoists
// the bounds checks out of the loop; a too-short operand panics at the
// re-slice, which is the contract.  See the package comment for the rules
// to follow when adding one.

// Zero sets every element of dst to zero (compiled to a memclr).
func Zero(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// Grow returns s resized to n, reusing the backing array when it is large
// enough — the scratch-reuse idiom of every hot path (a steady-state Grow
// performs no allocation).  Contents are unspecified, exactly as after
// Block.Reshape: callers must overwrite every element they read.
func Grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Scale writes dst[i] = a·x[i].
func Scale(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = a * x[i]
	}
}

// AXPY accumulates dst[i] += a·x[i] (the BLAS axpy).
func AXPY(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// WeightedSum writes dst[i] = a·x[i] + b·y[i] — the green-production
// kernel (α·solarKW + β·windKW) of the schedule merge, plant sizing and
// energy accounting.  dst may alias x or y.
func WeightedSum(dst []float64, a float64, x []float64, b float64, y []float64) {
	x = x[:len(dst)]
	y = y[:len(dst)]
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

// AddMul writes dst[i] = (x[i] + y[i])·z[i] — the facility-demand kernel
// ((compute + migration)·PUE).  dst may alias any operand.
func AddMul(dst, x, y, z []float64) {
	x = x[:len(dst)]
	y = y[:len(dst)]
	z = z[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] + y[i]) * z[i]
	}
}

// Sum returns Σ x[i], accumulated in index order (the order every scalar
// loop it replaces used, so totals stay bit-identical).
//
// The loop is unrolled 4-wide with a single accumulator: the additions
// happen in exactly the same order as the plain loop (bit-identity is the
// package contract — multiple accumulators would re-associate the chain),
// so the unroll only amortizes loop control, the first step of the ROADMAP
// SIMD item.  The x4 = x[i : i+4 : i+4] re-slice pins the bounds so the
// body runs check-free.
func Sum(x []float64) float64 {
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		s += x4[0]
		s += x4[1]
		s += x4[2]
		s += x4[3]
	}
	for ; i < len(x); i++ {
		s += x[i]
	}
	return s
}

// SumPositive returns acc plus every strictly positive element of x, in
// index order.  Taking the running accumulator as a parameter lets a
// caller fold several rows into one total without changing the addition
// chain's association (acc += Sum(row) groups differently and can differ
// in the last ulp); the > 0 guard also skips NaNs exactly like the scalar
// `if v > 0 { acc += v }` loops it replaces.
func SumPositive(acc float64, x []float64) float64 {
	for _, v := range x {
		if v > 0 {
			acc += v
		}
	}
	return acc
}

// DotWeighted returns Σ x[i]·w[i] in index order — the epoch-weighted
// total (kW · hours-per-epoch) that turns a power series into energy.
//
// Unrolled 4-wide with a single accumulator, like Sum: same sequence of
// multiply-then-add operations as the plain loop, so the result stays
// bit-identical while the loop control amortizes over four elements.
func DotWeighted(x, w []float64) float64 {
	w = w[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		w4 := w[i : i+4 : i+4]
		s += x4[0] * w4[0]
		s += x4[1] * w4[1]
		s += x4[2] * w4[2]
		s += x4[3] * w4[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * w[i]
	}
	return s
}

// ScaledDrop writes the migration-overhead series of a schedule row:
// dst[0] = 0 and, for t ≥ 1, dst[t] = a·max(x[t-1]−x[t], 0) — load that
// leaves a site between consecutive epochs burns a·drop of power at the
// donor during the next epoch.  dst must not alias x.
func ScaledDrop(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	if len(dst) == 0 {
		return
	}
	dst[0] = 0
	for t := 1; t < len(x); t++ {
		if drop := x[t-1] - x[t]; drop > 0 {
			dst[t] = a * drop
		} else {
			dst[t] = 0
		}
	}
}

// Equal reports whether two series are element-wise == (exact float
// equality; note -0 == 0 and NaN != NaN).
func Equal(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	y = y[:len(x)]
	for i, v := range x {
		if v != y[i] {
			return false
		}
	}
	return true
}

// digestMul is an odd 64-bit multiplier (from splitmix64's finalizer) that
// spreads each element's bits across the running state.
const (
	digestSeed = 0x9E3779B97F4A7C15
	digestMul  = 0xBF58476D1CE4E5B9
)

// Digest returns a 64-bit rolling digest of the series' raw float64 bits,
// folding in the length, so two rows with equal digests are element-wise
// bitwise identical up to hash collision (≈2⁻⁶⁴ per comparison).  The delta
// evaluator stores one Digest per cached schedule row and revalidates a
// clean site in O(1) instead of re-comparing the full row.  Note the
// digest is computed from raw bits: -0 and 0 digest differently even
// though they compare ==, which can only cost a spurious recomputation,
// never a stale reuse.
func Digest(x []float64) uint64 {
	h := uint64(len(x))*digestMul + digestSeed
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= digestMul
		h ^= h >> 31
	}
	return h
}
