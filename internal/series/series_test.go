package series

import (
	"math"
	"math/rand"
	"testing"
)

// refScale and friends are the naive scalar references the kernels are
// pinned against: every kernel must produce bit-identical output, because
// the refactor that introduced this package replaced open-coded loops of
// exactly these shapes and the solver's differential tests require
// bit-identical results.

func refScale(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] = a * x[i]
	}
}

func refAXPY(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func refWeightedSum(dst []float64, a float64, x []float64, b float64, y []float64) {
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

func refAddMul(dst, x, y, z []float64) {
	for i := range dst {
		dst[i] = (x[i] + y[i]) * z[i]
	}
}

func refSum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func refSumPositive(acc float64, x []float64) float64 {
	for _, v := range x {
		if v > 0 {
			acc += v
		}
	}
	return acc
}

func refSumScaled(x []float64, a float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * a
	}
	return s
}

func refScaledDrop(dst []float64, a float64, x []float64) {
	for t := range dst {
		dst[t] = 0
		if t > 0 {
			if drop := x[t-1] - x[t]; drop > 0 {
				dst[t] = a * drop
			}
		}
	}
}

// randSeries draws a series with the value mix the pipeline actually
// feeds the kernels: positive magnitudes across several decades, exact
// zeros, and occasional negatives.
func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = -rng.Float64() * math.Pow(10, float64(rng.Intn(6)-2))
		default:
			s[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(6)-2))
		}
	}
	return s
}

func bitsEqual(t *testing.T, kernel string, trial int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s trial %d: element %d: got %v (%#x) want %v (%#x)",
				kernel, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchScalarReference is the differential suite: every kernel
// against its naive reference, over randomized shapes including the
// zero-length and single-epoch rows the evaluator can legally produce.
func TestKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []int{0, 1, 2, 3, 7, 8, 15, 64, 97, 365}
	for trial := 0; trial < 300; trial++ {
		n := shapes[trial%len(shapes)]
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		z := randSeries(rng, n)
		base := randSeries(rng, n)
		a := rng.NormFloat64() * 100
		b := rng.NormFloat64() * 100

		got, want := make([]float64, n), make([]float64, n)

		copy(got, base)
		copy(want, base)
		Scale(got, a, x)
		refScale(want, a, x)
		bitsEqual(t, "Scale", trial, got, want)

		copy(got, base)
		copy(want, base)
		AXPY(got, a, x)
		refAXPY(want, a, x)
		bitsEqual(t, "AXPY", trial, got, want)

		copy(got, base)
		copy(want, base)
		WeightedSum(got, a, x, b, y)
		refWeightedSum(want, a, x, b, y)
		bitsEqual(t, "WeightedSum", trial, got, want)

		copy(got, base)
		copy(want, base)
		AddMul(got, x, y, z)
		refAddMul(want, x, y, z)
		bitsEqual(t, "AddMul", trial, got, want)

		copy(got, base)
		copy(want, base)
		ScaledDrop(got, a, x)
		refScaledDrop(want, a, x)
		bitsEqual(t, "ScaledDrop", trial, got, want)

		if g, w := Sum(x), refSum(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("Sum trial %d: got %v want %v", trial, g, w)
		}
		if g, w := SumPositive(a, x), refSumPositive(a, x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("SumPositive trial %d: got %v want %v", trial, g, w)
		}
		if g, w := SumScaled(x, a), refSumScaled(x, a); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("SumScaled trial %d: got %v want %v", trial, g, w)
		}

		copy(got, base)
		Zero(got)
		for i, v := range got {
			if v != 0 {
				t.Fatalf("Zero trial %d: element %d = %v", trial, i, v)
			}
		}

		if !Equal(x, x) {
			t.Fatalf("Equal trial %d: series not equal to itself", trial)
		}
		if n > 0 {
			mut := append([]float64(nil), x...)
			k := rng.Intn(n)
			mut[k] = mut[k] + 1e-9 + math.Abs(mut[k])*1e-12
			if Equal(x, mut) {
				t.Fatalf("Equal trial %d: differing series compare equal", trial)
			}
		}
	}
}

// TestWeightedSumAliasing pins the documented aliasing guarantee: dst may
// be one of the operands (the evaluator scales rows in place).
func TestWeightedSumAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSeries(rng, 33)
	y := randSeries(rng, 33)
	want := make([]float64, 33)
	refWeightedSum(want, 2.5, x, -1.25, y)

	got := append([]float64(nil), x...)
	WeightedSum(got, 2.5, got, -1.25, y)
	bitsEqual(t, "WeightedSum(dst=x)", 0, got, want)

	got = append([]float64(nil), y...)
	WeightedSum(got, 2.5, x, -1.25, got)
	bitsEqual(t, "WeightedSum(dst=y)", 1, got, want)
}

// TestDigest pins the digest's contract: deterministic, length-aware, and
// sensitive to any single-element change (the property the delta
// evaluator's O(1) clean-site revalidation rests on).
func TestDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if Digest(nil) != Digest([]float64{}) {
		t.Fatal("nil and empty digests differ")
	}
	if Digest(nil) == Digest([]float64{0}) {
		t.Fatal("digest ignores length")
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		x := randSeries(rng, n)
		d := Digest(x)
		if Digest(x) != d {
			t.Fatalf("trial %d: digest not deterministic", trial)
		}
		cp := append([]float64(nil), x...)
		if Digest(cp) != d {
			t.Fatalf("trial %d: equal series digest differently", trial)
		}
		k := rng.Intn(n)
		old := cp[k]
		cp[k] = old + 1 + math.Abs(old)*1e-9
		if Digest(cp) == d {
			t.Fatalf("trial %d: single-element change at %d kept the digest", trial, k)
		}
		// Swapping two unequal elements must change the digest: the roll
		// is position-dependent, not a plain XOR of element hashes.
		if n >= 2 {
			cp = append(cp[:0], x...)
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && math.Float64bits(cp[i]) != math.Float64bits(cp[j]) {
				cp[i], cp[j] = cp[j], cp[i]
				if Digest(cp) == d {
					t.Fatalf("trial %d: swapping elements %d,%d kept the digest", trial, i, j)
				}
			}
		}
	}
}

// TestBlock pins the Block contract: epoch-major layout, row boundaries
// enforced by slice capacity, and allocation-free steady-state Reshape.
func TestBlock(t *testing.T) {
	var b Block
	b.Reshape(3, 5)
	if b.rows != 3 || b.epochs != 5 || len(b.Data()) != 15 {
		t.Fatalf("Reshape(3,5): rows=%d epochs=%d len=%d", b.rows, b.epochs, len(b.Data()))
	}
	for r := 0; r < 3; r++ {
		row := b.Row(r)
		if len(row) != 5 || cap(row) != 5 {
			t.Fatalf("row %d: len=%d cap=%d, want 5/5 (capacity must clip at the row boundary)", r, len(row), cap(row))
		}
		for i := range row {
			row[i] = float64(r*5 + i)
		}
	}
	for i, v := range b.Data() {
		if v != float64(i) {
			t.Fatalf("epoch-major layout broken: data[%d] = %v", i, v)
		}
	}

	// Shrinking and re-growing within capacity must not allocate and must
	// preserve the backing array identity (the evaluator's reuse contract).
	allocs := testing.AllocsPerRun(10, func() {
		b.Reshape(2, 5)
		b.Reshape(3, 5)
	})
	if allocs != 0 {
		t.Errorf("steady-state Reshape allocates %v times", allocs)
	}

	// Grow shares the Reshape contract: reuse within capacity, no
	// allocation in steady state, unspecified contents.
	s := Grow(nil, 4)
	if len(s) != 4 {
		t.Fatalf("Grow(nil, 4) has len %d", len(s))
	}
	allocs = testing.AllocsPerRun(10, func() {
		s = Grow(s, 2)
		s = Grow(s, 4)
	})
	if allocs != 0 {
		t.Errorf("steady-state Grow allocates %v times", allocs)
	}

	nb := NewBlock(2, 4)
	for _, v := range nb.Data() {
		if v != 0 {
			t.Fatal("NewBlock is not zeroed")
		}
	}
	zero := NewBlock(0, 7)
	if zero.rows != 0 || len(zero.Data()) != 0 {
		t.Fatal("zero-row block malformed")
	}
}

// FuzzDigestVsEqual cross-checks the digest against exact comparison on
// fuzz-generated row pairs: equal rows must digest equally, and the fuzzer
// hunting for a digest collision on unequal rows documents the O(1)
// revalidation's failure mode (none has been found).
func FuzzDigestVsEqual(f *testing.F) {
	f.Add(int64(1), 8, true)
	f.Add(int64(2), 1, false)
	f.Add(int64(3), 0, true)
	f.Add(int64(4), 365, false)
	f.Fuzz(func(t *testing.T, seed int64, n int, mutate bool) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := randSeries(rng, n)
		y := append([]float64(nil), x...)
		if mutate && n > 0 {
			y[rng.Intn(n)] += 1 + rng.Float64()
		}
		xEq := Equal(x, y)
		dEq := Digest(x) == Digest(y)
		if xEq && !dEq {
			t.Fatalf("equal rows digest differently (n=%d)", n)
		}
		if !xEq && dEq {
			t.Fatalf("digest collision on unequal rows (n=%d, seed=%d)", n, seed)
		}
	})
}
