package lp

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Reference pricing rules.  Production prices with devex and reaches Bland
// only through the stall latch; the classic rules below plug into the same
// pricer interface so the differential suite, the MPS gate and the pricing
// benchmark can hold devex to them.

// pricingRule names a pricing rule for the A/B and differential tests.
type pricingRule int

const (
	ruleDevex pricingRule = iota
	ruleDantzig
	ruleBland
)

var pricingRules = []pricingRule{ruleDevex, ruleDantzig, ruleBland}

func (r pricingRule) String() string {
	switch r {
	case ruleDantzig:
		return "dantzig"
	case ruleBland:
		return "bland"
	default:
		return "devex"
	}
}

// control returns the solve control that selects r.
func (r pricingRule) control() *solveControl {
	switch r {
	case ruleDantzig:
		return &solveControl{ref: func(*solver) pricer { return dantzigPricer{} }}
	case ruleBland:
		// An explicit Bland selection rides the stall latch machinery for
		// the whole solve: least-index pricing plus the exact
		// smallest-index ratio test its termination guarantee needs.  The
		// latch never releases, and no BlandSwitch is counted — nothing
		// switched.
		return &solveControl{ref: func(s *solver) pricer {
			s.blandForced, s.blandOnly = true, true
			return blandPricer{}
		}}
	default:
		return &solveControl{}
	}
}

// solveRule is SolveWithOptions(SolveOptions{}) under pricing rule r.
func (p *Problem) solveRule(r pricingRule) (*Solution, error) {
	return p.solveFrom(nil, r.control())
}

// dantzigPricer is the classic most-violating rule over a full scan, with
// the plain incremental reduced-cost maintenance.
type dantzigPricer struct{}

func (dantzigPricer) price(s *solver) int { return s.pickEntering(false) }

func (dantzigPricer) update(s *solver, q, p int, dq float64, w []float64) {
	s.updateReducedAfterPivot(q, p, dq)
}

func (dantzigPricer) reset(*solver) {}

// blandPricer is Bland's least-index rule behind the pricer interface.  The
// latched solver prices with pickEntering(true) itself, so only update and
// reset are reached.
type blandPricer struct{}

func (blandPricer) price(s *solver) int { return s.pickEntering(true) }

func (blandPricer) update(s *solver, q, p int, dq float64, w []float64) {
	s.updateReducedAfterPivot(q, p, dq)
}

func (blandPricer) reset(*solver) {}

// updateReducedAfterPivot maintains the reduced-cost row across the pivot
// that entered q at position p with exact reduced cost dq: with ρ = row p of
// the new basis inverse, d'_j = d_j − dq·(ρ·A_j).  One sparse BTRAN plus one
// pass over the CSC nonzeros — the revised-simplex analogue of the dense
// tableau's reduced-row elimination.  Bound statuses never enter: reduced
// costs depend on the basis alone.
func (s *solver) updateReducedAfterPivot(q int, p int, dq float64) {
	rho := s.w // w's FTRAN contents are dead once the pivot is applied
	s.btranUnit(p, rho)
	alpha := s.alphaRow(rho)
	for j := 0; j < s.std.nTotal; j++ {
		if a := alpha[j]; a != 0 && !s.basic[j] {
			s.reduced[j] -= dq * a
		}
	}
	s.reduced[q] = 0
	s.stale++
}

// TestVendoredMPSReferenceRules is the reference-rule leg of the vendored
// MPS gate (cmd/lpsolve's TestVendoredMPS runs the production binary): every
// committed reference objective in testdata/mps/objectives.tsv must be
// reproduced under Dantzig's rule and under whole-solve Bland.
func TestVendoredMPSReferenceRules(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "mps")
	f, err := os.Open(filepath.Join(dir, "objectives.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed reference line %q", line)
		}
		want, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("reference %q: %v", line, err)
		}
		n++
		name = strings.TrimSpace(name)
		t.Run(name, func(t *testing.T) {
			mf, err := os.Open(filepath.Join(dir, name+".mps"))
			if err != nil {
				t.Fatal(err)
			}
			defer mf.Close()
			p, err := ReadMPS(mf)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []pricingRule{ruleDantzig, ruleBland} {
				sol, err := p.solveRule(r)
				if err != nil {
					t.Fatalf("%v: %v", r, err)
				}
				if tol := 1e-9 * math.Max(1, math.Abs(want)); math.Abs(sol.Objective-want) > tol {
					t.Errorf("%v: objective %.12g, want %.12g", r, sol.Objective, want)
				}
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no reference objectives")
	}
}

// BenchmarkLPPricing A/B-tests the pricing rules on a cold solve of the
// scheduler-shaped partition LP (3 datacenters × 48 hours).  Each
// sub-benchmark reports pivots/op alongside ns/op, so a pricing change shows
// up both as wall-clock and as iteration count; the devex/dantzig gap is the
// payoff of reference-weight steepest-edge approximation, the dantzig/bland
// gap the cost of the anti-cycling fallback if it were the primary rule.
func BenchmarkLPPricing(b *testing.B) {
	for _, r := range pricingRules {
		b.Run(r.String(), func(b *testing.B) {
			prob := partitionShapedLP(b, 3, 48, 0)
			pivots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := prob.solveRule(r)
				if err != nil {
					b.Fatal(err)
				}
				pivots = sol.Stats.Pivots
			}
			b.ReportMetric(float64(pivots), "pivots/op")
		})
	}
}
