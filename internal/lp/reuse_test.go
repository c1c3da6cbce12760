package lp

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rebuilt returns a Problem built from scratch, through the public
// constructors, with p's current data: the reference a kept standard form
// and a reused solver must match.
func rebuilt(t testing.TB, p *Problem) *Problem {
	t.Helper()
	q := NewProblem(p.sense)
	for _, v := range p.vars {
		if _, err := q.AddVariable(v.name, v.lb, v.ub, v.cost); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range p.cons {
		if err := q.AddConstraint(c.name, c.op, c.rhs, c.terms...); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// standardDiff names the first field where two standard forms differ, or
// returns "" when they agree field for field (row mirrors included).
func standardDiff(got, want *standard) string {
	switch {
	case got.m != want.m || got.nStruct != want.nStruct || got.nTotal != want.nTotal || got.nCols != want.nCols:
		return "shape"
	case !sameBits(got.b, want.b):
		return "b"
	case !sameBits(got.c, want.c):
		return "c"
	case !sameBits(got.upper, want.upper):
		return "upper"
	case !sameBits(got.shift, want.shift):
		return "shift"
	case !slices.Equal(got.mirror, want.mirror), !slices.Equal(got.negPart, want.negPart),
		!slices.Equal(got.colOf, want.colOf):
		return "variable columns"
	case !slices.Equal(got.colPtr, want.colPtr), !slices.Equal(got.rowIdx, want.rowIdx):
		return "CSC pattern"
	case !sameBits(got.vals, want.vals):
		return "CSC values"
	case !slices.Equal(got.slackOf, want.slackOf), !slices.Equal(got.artOf, want.artOf):
		return "slack/artificial columns"
	case !slices.Equal(got.colIDs, want.colIDs):
		return "column identities"
	}
	got.buildRows()
	want.buildRows()
	switch {
	case !slices.Equal(got.rowPtr, want.rowPtr), !slices.Equal(got.rowCols, want.rowCols):
		return "row mirror pattern"
	case !sameBits(got.rowVals, want.rowVals):
		return "row mirror values"
	}
	return ""
}

// layoutOf snapshots the fields a layout fixes, so a test can tell whether
// an edit should have kept it.
type layoutOf struct {
	mirror, rowNeg                          []bool
	negPart, colPtr, rowIdx, slackOf, artOf []int
}

func snapshotLayout(s *standard) layoutOf {
	return layoutOf{
		mirror: slices.Clone(s.mirror), rowNeg: slices.Clone(s.rowNeg),
		negPart: slices.Clone(s.negPart), colPtr: slices.Clone(s.colPtr), rowIdx: slices.Clone(s.rowIdx),
		slackOf: slices.Clone(s.slackOf), artOf: slices.Clone(s.artOf),
	}
}

func (l layoutOf) equal(s *standard) bool {
	return slices.Equal(l.mirror, s.mirror) && slices.Equal(l.rowNeg, s.rowNeg) &&
		slices.Equal(l.negPart, s.negPart) && slices.Equal(l.colPtr, s.colPtr) &&
		slices.Equal(l.rowIdx, s.rowIdx) && slices.Equal(l.slackOf, s.slackOf) && slices.Equal(l.artOf, s.artOf)
}

// Edits of TestStandardFormReuseMatchesFresh.  The first group only moves
// numbers; the second is built to change the layout (and toggles back on a
// later draw, so the layout changes again on the way back).
const (
	editRHS       = iota // shifted RHS rescaled, sign kept
	editCost             // objective coefficient
	editBounds           // finite bound moved (ub may also go to or from +Inf)
	editCoeff            // coefficient re-weighted
	editRHSFlip          // shifted RHS sign flipped (the row's operator picks LE/GE/EQ)
	editLowerInf         // lb to −Inf and back: shifted ↔ mirrored or split
	editFree             // doubly free and back
	editCoeffZero        // a coefficient to 0 and back
	editDupCancel        // a duplicate term cancels its twin, and back
	editGrow             // AddVariable + AddConstraint after a solve
	numEdits
)

var editNames = [numEdits]string{"rhs", "cost", "bounds", "coeff", "rhs-flip", "lb-inf", "free", "coeff-zero", "dup-cancel", "grow"}

// reuseProblem draws a random model and adds the features the reuse test
// must reach: a doubly-free and a mirrored variable, and one row per
// operator carrying both plus a duplicate term.  It returns the problem and
// the duplicate-term rows.
func reuseProblem(rng *rand.Rand) (*Problem, []int) {
	p := randomProblemShaped(rng, rng.Intn(2) == 0)
	free := p.MustVariable("free", math.Inf(-1), Infinity, rng.Float64()*4-2)
	mir := p.MustVariable("mirror", math.Inf(-1), rng.Float64()*4, rng.Float64()*4-2)
	var dupRows []int
	for _, op := range []Op{LE, GE, EQ} {
		x := Var(rng.Intn(p.NumVariables()))
		terms := []Term{
			{Var: x, Coeff: rng.Float64()*4 - 2},
			{Var: free, Coeff: rng.Float64()*4 - 2},
			{Var: mir, Coeff: rng.Float64()*4 - 2},
			{Var: x, Coeff: rng.Float64()*4 - 2},
		}
		if err := p.AddConstraint("dup", op, rng.Float64()*10-5, terms...); err != nil {
			panic(err)
		}
		dupRows = append(dupRows, p.NumConstraints()-1)
	}
	return p, dupRows
}

// shiftedRHS is constraint i's right-hand side after the bound shifts.
func shiftedRHS(p *Problem, i int) float64 {
	rhs := p.cons[i].rhs
	for _, t := range p.cons[i].terms {
		_, _, shift := boundForm(p.vars[t.Var])
		rhs -= t.Coeff * shift
	}
	return rhs
}

// applyEdit applies one edit of the given kind and returns the constraint it
// touched, or -1.  saved remembers what a toggling edit replaced, so its next
// draw restores it.
func applyEdit(t *testing.T, rng *rand.Rand, p *Problem, kind int, dupRows []int, saved map[[3]int][2]float64) int {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	nv, nc := p.NumVariables(), p.NumConstraints()
	j := rng.Intn(nv)
	v := p.vars[j]
	toggle := func(key [3]int, set func(), restore func(old [2]float64)) {
		if old, ok := saved[key]; ok {
			restore(old)
			delete(saved, key)
			return
		}
		set()
	}
	switch kind {
	case editRHS:
		if nc > 0 {
			i := rng.Intn(nc)
			s := shiftedRHS(p, i)
			must(p.SetRHS(i, p.cons[i].rhs-s+s*(0.5+rng.Float64())))
			return i
		}
	case editCost:
		must(p.SetCost(Var(j), rng.Float64()*4-2))
	case editBounds:
		switch mirror, split, _ := boundForm(v); {
		case split:
		case mirror:
			must(p.SetBounds(Var(j), v.lb, v.ub+rng.Float64()-0.5))
		case rng.Intn(3) == 0:
			must(p.SetBounds(Var(j), v.lb, Infinity))
		default:
			must(p.SetBounds(Var(j), v.lb, v.lb+rng.Float64()*8))
		}
	case editCoeff, editCoeffZero:
		if nc == 0 {
			return -1
		}
		i := rng.Intn(nc)
		if len(p.cons[i].terms) == 0 {
			return -1
		}
		tm := p.cons[i].terms[rng.Intn(len(p.cons[i].terms))]
		if kind == editCoeff {
			must(p.SetCoeff(i, tm.Var, tm.Coeff*(0.5+rng.Float64())))
			return i
		}
		key := [3]int{kind, i, int(tm.Var)}
		toggle(key,
			func() { saved[key] = [2]float64{tm.Coeff}; must(p.SetCoeff(i, tm.Var, 0)) },
			func(old [2]float64) { must(p.SetCoeff(i, tm.Var, old[0])) })
		return i
	case editRHSFlip:
		if nc > 0 {
			i := rng.Intn(nc)
			must(p.SetRHS(i, p.cons[i].rhs-2*shiftedRHS(p, i)))
			return i
		}
	case editLowerInf, editFree:
		key := [3]int{editLowerInf, j} // one toggle slot per variable for both kinds
		toggle(key, func() {
			saved[key] = [2]float64{v.lb, v.ub}
			ub := v.ub
			if kind == editFree {
				ub = Infinity
			}
			must(p.SetBounds(Var(j), math.Inf(-1), ub))
		}, func(old [2]float64) { must(p.SetBounds(Var(j), old[0], old[1])) })
	case editDupCancel:
		i := dupRows[rng.Intn(len(dupRows))]
		first, twin := p.cons[i].terms[0], p.cons[i].terms[3]
		key := [3]int{kind, i}
		toggle(key, func() {
			saved[key] = [2]float64{first.Coeff}
			must(p.SetCoeff(i, first.Var, -twin.Coeff))
		}, func(old [2]float64) { must(p.SetCoeff(i, first.Var, old[0])) })
		return i
	case editGrow:
		x := p.MustVariable("grown", 0, rng.Float64()*5, rng.Float64()*4-2)
		must(p.AddConstraint("grown", Op(1+rng.Intn(3)), rng.Float64()*6-1,
			Term{Var: x, Coeff: 1}, Term{Var: Var(j), Coeff: rng.Float64()*2 - 1}))
		return nc
	}
	return -1
}

// TestStandardFormReuseMatchesFresh is the differential pin of the kept
// standard form.  Seeded random edit sequences — data edits and every kind
// of layout-changing edit — run against one Problem that solves after each
// edit.  After every edit the kept form must equal a freshly built one
// field for field, the layout must have been kept exactly when the fresh
// layout equals the old one, and SolveFrom on the carried basis must give
// a bit-identical status, objective, values, Stats and basis to a Problem
// built from scratch with the same data.
func TestStandardFormReuseMatchesFresh(t *testing.T) {
	var kept, relaid [numEdits]int
	flips := map[Op]int{}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		p, dupRows := reuseProblem(rng)
		sol, _ := p.Solve()
		basis := sol.Basis()
		saved := map[[3]int][2]float64{}
		for step := 0; step < 12; step++ {
			before := snapshotLayout(p.standardize())
			kind := rng.Intn(numEdits)
			row := applyEdit(t, rng, p, kind, dupRows, saved)
			ref := rebuilt(t, p)
			fresh := ref.standardize()
			wantKept := before.equal(fresh)
			if gotKept := p.refill(&p.std); gotKept != wantKept {
				t.Fatalf("trial %d step %d (%s): refill kept the layout = %v, want %v",
					trial, step, editNames[kind], gotKept, wantKept)
			}
			if wantKept {
				kept[kind]++
			} else {
				relaid[kind]++
				if kind == editRHSFlip && row >= 0 {
					flips[p.cons[row].op]++
				}
			}
			if d := standardDiff(p.standardize(), fresh); d != "" {
				t.Fatalf("trial %d step %d (%s): kept standard form differs from a fresh one in %s",
					trial, step, editNames[kind], d)
			}

			got, gotErr := p.SolveFrom(basis)
			want, wantErr := rebuilt(t, p).SolveFrom(basis)
			if gotErr != wantErr {
				t.Fatalf("trial %d step %d (%s): err %v, fresh %v", trial, step, editNames[kind], gotErr, wantErr)
			}
			if got == nil || want == nil {
				if got != want {
					t.Fatalf("trial %d step %d (%s): solution %v, fresh %v", trial, step, editNames[kind], got, want)
				}
				continue
			}
			if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
				!sameBits(got.values, want.values) || got.Stats != want.Stats {
				t.Fatalf("trial %d step %d (%s): got %v obj %v stats %+v, fresh %v obj %v stats %+v",
					trial, step, editNames[kind], got.Status, got.Objective, got.Stats,
					want.Status, want.Objective, want.Stats)
			}
			if b := got.Basis(); b != nil {
				gb, _ := b.AppendBinary(nil)
				wb, _ := want.Basis().AppendBinary(nil)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("trial %d step %d (%s): captured basis differs from the fresh solve's",
						trial, step, editNames[kind])
				}
				basis = b
			}
		}
	}
	for k := 0; k < numEdits; k++ {
		t.Logf("%-10s kept %4d  re-laid %4d", editNames[k], kept[k], relaid[k])
		if k >= editRHSFlip && relaid[k] == 0 {
			t.Errorf("%s never changed the layout: the test lost its coverage", editNames[k])
		}
		if k < editRHSFlip && kept[k] == 0 {
			t.Errorf("%s never kept the layout: the test lost its coverage", editNames[k])
		}
	}
	for _, op := range []Op{LE, GE, EQ} {
		if flips[op] == 0 {
			t.Errorf("no RHS sign flip re-laid a %v row", op)
		}
	}
}

// TestWarmResolveAllocatesOnlyItsResult pins the allocation contract of a
// warm re-solve after a layout-preserving edit: the kept standard form, the
// solver's vectors, LU factors, eta file and devex weights are all reused,
// so the solve allocates only what it returns — the Solution, its values
// and the captured Basis (the struct plus its non-empty slices) — and that
// count does not grow with the horizon.
func TestWarmResolveAllocatesOnlyItsResult(t *testing.T) {
	var counts []float64
	for _, horizon := range []int{12, 48} {
		p := partitionShapedLP(t, 3, horizon, 0)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		basis := sol.Basis()
		// The green forecasts move and one site's capacity halves, then
		// both come back: every edited row keeps its sign, and so the
		// layout, while the optimal basis changes.
		var rows []int
		var rhs []float64
		caps := 0
		for i, c := range p.cons {
			if c.name == "cap" {
				caps++ // datacenter 0's rows come first
			}
			if c.name == "brown" || (c.name == "cap" && caps <= horizon) {
				rows, rhs = append(rows, i), append(rhs, c.rhs)
			}
		}
		k, work := 0, 0
		var last *Solution
		allocs := testing.AllocsPerRun(20, func() {
			f := []float64{0.5, 1}[k%2]
			k++
			for n, i := range rows {
				if err := p.SetRHS(i, rhs[n]*f); err != nil {
					t.Fatal(err)
				}
			}
			if !p.refill(&p.std) {
				t.Fatal("a sign-preserving RHS edit changed the layout")
			}
			s, err := p.SolveFrom(basis)
			if err != nil || s.Stats.ColdFallbacks != 0 {
				t.Fatalf("warm re-solve: err %v, stats %+v", err, s.Stats)
			}
			work += s.Stats.Pivots + s.Stats.BoundFlips
			basis, last = s.Basis(), s
		})
		if work == 0 {
			t.Fatalf("horizon %d: the re-solves did no simplex work; the pin measures nothing", horizon)
		}
		want := 3 // Solution, values, Basis
		for _, n := range []int{len(last.basis.cols), len(last.basis.upper), len(last.basis.devexCols), len(last.basis.devexW)} {
			if n > 0 {
				want++
			}
		}
		t.Logf("horizon %d: %.0f allocs per warm re-solve (result: %d), %d pivots and flips in all", horizon, allocs, want, work)
		if allocs != float64(want) {
			t.Errorf("horizon %d: warm re-solve allocates %.0f times, want %d (the Solution, its values and the Basis)",
				horizon, allocs, want)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("warm re-solve allocations grow with the horizon: %v at 12 h, %v at 48 h", counts[0], counts[1])
	}
}
