// Package lp implements a bounded-variable sparse revised-simplex solver
// for linear programs.
//
// The paper formulates both the siting/provisioning problem and GreenNebula's
// 48-hour workload-partitioning problem as (mixed-integer) linear programs
// and solves them with an off-the-shelf solver.  This package is the
// from-scratch substitute: it supports minimization and maximization,
// less-than, greater-than and equality constraints, variable lower/upper
// bounds, and reports infeasibility and unboundedness.  internal/milp adds
// branch and bound on top for integer variables.
//
// # Architecture: bounded revised simplex over a sparse basis
//
// The standard form is minimize c·y s.t. A·y = b, 0 ≤ y ≤ u with one row
// per model constraint and nothing else: finite variable bounds are column
// data, never rows.  A variable with a finite lower bound is shifted, one
// that is free below but bounded above is mirrored (y = ub − x), and only
// a doubly-free variable is split x = x⁺ − x⁻.  Every nonbasic column sits
// at one of its bounds (at-lower or at-upper status); pricing is signed by
// that status (a column improves by increasing off its lower bound when
// its reduced cost is negative, by decreasing off its upper bound when it
// is positive), and the ratio test caps the step at the entering column's
// own opposite bound — when that cap binds first the iteration is a pure
// bound flip: the status bit flips and the basic solution shifts, with no
// basis change, no eta and no LU aging at all.  Fixed variables (lo == hi)
// are pinned columns that are never priced.
//
// The solver stores the standard form column-wise (CSC) and never forms a
// dense tableau.  A Problem keeps its standard form between solves: a solve
// after data edits (SetRHS, SetCost, SetCoeff, SetBounds) rewrites its
// numbers in place, and only an edit that changes its layout rebuilds it
// (standard.go lists which).  The solver's vectors, LU factors, eta file
// and devex weights live with the Problem too, so a warm re-solve allocates
// only the Solution and Basis it returns.  The basis matrix
// is LU-factorized by a Gilbert–Peierls sparse factorization with partial
// pivoting (lu.go); each simplex pivot appends a product-form eta vector
// instead of re-eliminating rows, and the basis is refactorized from
// scratch every refactorEvery pivots to bound eta-file growth and rounding
// drift (revised.go).  Entering columns are priced over an incrementally
// maintained reduced-cost row (one sparse BTRAN of the leaving unit vector
// plus one pass over the CSC nonzeros per pivot); every nominee's reduced
// cost is re-verified exactly from its FTRAN column — a byproduct of the
// ratio test — so pricing drift can cost a re-pick, never a junk pivot,
// and optimality is only declared after an exact rebuild.  Which column
// that row nominates is the pricing rule (pricing.go): devex reference
// weights over the full row, with Bland's least-index rule as the
// anti-cycling fallback.
//
// # Pricing
//
// The pricing rule decides which nonbasic column enters the basis each
// pivot; it is the lever with the biggest effect on iteration counts.
// Production prices with devex: each candidate scores viol²/w_j, where w_j
// is a devex reference weight approximating ‖B⁻¹·A_j‖² — the
// steepest-edge criterion without its per-column FTRANs.  Weights start at
// 1 over a reference framework, are updated in O(nnz) per pivot from the
// same BTRAN row that maintains the reduced costs, and the framework resets
// when the weight spread drifts past a ratio bound.  Every pick scans the
// full maintained row, fused into the pass that updates it.  The same
// weights price the leaving row in the dual simplex, and both primal and
// dual weights are captured into Basis so warm restarts (SolveFrom) resume
// with the framework instead of re-learning it.
//
// Bland's least-index rule is the fallback: it terminates finitely on any
// model, and the stall ladder latches onto it mid-solve
// (Stats.BlandSwitches) when a long run of degenerate pivots makes no
// progress.  Once the objective moves again the latch releases and devex
// restarts from a fresh framework (Stats.DevexResets).
//
// Dantzig's most-violating full scan and a whole-solve Bland rule live in
// pricing_ref_test.go as references behind the same pricer interface.  All
// rules share the exact-FTRAN re-verification above, so they differ in
// pivot counts and wall-clock, never in the optimum; the differential suite
// solves every random model under all three and requires identical
// statuses and objectives, and BenchmarkLPPricing A/Bs them on the
// scheduler-shaped partition LP with a pivots/op metric.  Stats reports the
// pricing work per solve (DevexResets).
//
// # Warm starts
//
// A successful solve captures its optimal basis in model-level terms (the
// Basis type: per row, which variable/slack/artificial is basic, plus the
// set of nonbasic columns at their upper bounds, keyed by identities that
// survive re-standardization).  SolveFrom(basis) restarts from it: after
// bound or right-hand-side mutations (SetBounds, SetRHS, SetCoeff,
// SetCost) the old basis is typically primal-infeasible but still
// dual-feasible — a tightened bound just moves the at-bound columns with
// it — so a handful of bounded dual-simplex pivots (a basic value may now
// violate either of its bounds) re-optimize in place of a full two-phase
// solve.  internal/milp edits branch bounds on one shared relaxation, so a
// branch-and-bound node adds zero rows and restarts from its parent's
// basis; internal/sched keeps one basis across scheduling rounds.
//
// # MPS interchange
//
// WriteMPS and ReadMPS (mps.go) serialize Problems to the MPS format —
// fixed and free layouts, NAME/OBJSENSE/ROWS/COLUMNS/RHS/RANGES/BOUNDS —
// so instances interchange with external solvers; cmd/lpsolve is the
// standalone entry point.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Sense is the optimization direction.
type Sense int

// Optimization senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // left-hand side ≤ rhs
	GE               // left-hand side ≥ rhs
	EQ               // left-hand side = rhs
)

// String returns the operator symbol.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded

	// internal-only outcomes; never stored in a Solution.
	statusNumeric   // iteration limit / factorization failure
	statusRetry     // warm start unusable: fall back to a cold solve
	statusDeadline  // SolveOptions.Deadline or Ctx's deadline expired mid-solve
	statusCancelled // SolveOptions.Ctx was cancelled mid-solve
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Var is an opaque handle to a decision variable.
type Var int

// Term is one coefficient×variable term of a constraint.
type Term struct {
	Var   Var
	Coeff float64
}

// Infinity marks an unbounded variable upper bound.
var Infinity = math.Inf(1)

// variable holds the model-level description of a decision variable.
type variable struct {
	name string
	lb   float64
	ub   float64
	cost float64
}

// constraint holds one row of the model.
type constraint struct {
	name  string
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction.  It is not safe for
// concurrent use: mutation and solving both touch shared state (the solve
// methods reuse per-Problem scratch buffers across calls).
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
	std   standard // kept across solves; see standardize
	scr   solveScratch
}

// NewProblem returns an empty problem with the given sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable adds a decision variable with bounds [lb, ub] (ub may be
// Infinity) and the given objective coefficient, returning its handle.
func (p *Problem) AddVariable(name string, lb, ub, cost float64) (Var, error) {
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(cost) {
		return -1, fmt.Errorf("lp: variable %q has NaN bounds or cost", name)
	}
	if ub < lb {
		return -1, fmt.Errorf("lp: variable %q has upper bound %v below lower bound %v", name, ub, lb)
	}
	p.vars = append(p.vars, variable{name: name, lb: lb, ub: ub, cost: cost})
	return Var(len(p.vars) - 1), nil
}

// MustVariable is AddVariable that panics on error; for construction code
// with constant, known-good arguments.
func (p *Problem) MustVariable(name string, lb, ub, cost float64) Var {
	v, err := p.AddVariable(name, lb, ub, cost)
	if err != nil {
		panic(err)
	}
	return v
}

// SetCost overrides the objective coefficient of an existing variable.
func (p *Problem) SetCost(v Var, cost float64) error {
	if int(v) < 0 || int(v) >= len(p.vars) {
		return fmt.Errorf("lp: unknown variable %d", v)
	}
	p.vars[v].cost = cost
	return nil
}

// SetBounds overrides the bounds of an existing variable.  Re-solving after
// a bound change warm-starts cleanly from the previous solve's Basis: bound
// tightening keeps the old basis dual-feasible, so SolveFrom restarts with
// the dual simplex instead of a from-scratch phase 1 (the branch-and-bound
// pattern in internal/milp).
func (p *Problem) SetBounds(v Var, lb, ub float64) error {
	if int(v) < 0 || int(v) >= len(p.vars) {
		return fmt.Errorf("lp: unknown variable %d", v)
	}
	if math.IsNaN(lb) || math.IsNaN(ub) {
		return fmt.Errorf("lp: variable %q has NaN bounds", p.vars[v].name)
	}
	if ub < lb {
		return fmt.Errorf("lp: variable %q has upper bound %v below lower bound %v", p.vars[v].name, ub, lb)
	}
	p.vars[v].lb, p.vars[v].ub = lb, ub
	return nil
}

// AddConstraint adds a linear constraint Σ terms (op) rhs.
func (p *Problem) AddConstraint(name string, op Op, rhs float64, terms ...Term) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: constraint %q has invalid operator", name)
	}
	if math.IsNaN(rhs) {
		return fmt.Errorf("lp: constraint %q has NaN right-hand side", name)
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
		if math.IsNaN(t.Coeff) {
			return fmt.Errorf("lp: constraint %q has NaN coefficient", name)
		}
	}
	copied := make([]Term, len(terms))
	copy(copied, terms)
	p.cons = append(p.cons, constraint{name: name, terms: copied, op: op, rhs: rhs})
	return nil
}

// SetRHS overrides the right-hand side of constraint i (in insertion order).
// Together with SolveFrom it is the re-solve path of callers that keep one
// Problem alive across rounds (internal/sched's partition LP).
func (p *Problem) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.cons) {
		return fmt.Errorf("lp: unknown constraint %d", i)
	}
	if math.IsNaN(rhs) {
		return fmt.Errorf("lp: constraint %q has NaN right-hand side", p.cons[i].name)
	}
	p.cons[i].rhs = rhs
	return nil
}

// SetCoeff overrides the coefficient of variable v in constraint i.  The
// term must already exist: the mutation API only re-weights an existing
// sparsity pattern, it never changes it.
func (p *Problem) SetCoeff(i int, v Var, coeff float64) error {
	if i < 0 || i >= len(p.cons) {
		return fmt.Errorf("lp: unknown constraint %d", i)
	}
	if math.IsNaN(coeff) {
		return fmt.Errorf("lp: constraint %q has NaN coefficient", p.cons[i].name)
	}
	for k := range p.cons[i].terms {
		if p.cons[i].terms[k].Var == v {
			p.cons[i].terms[k].Coeff = coeff
			return nil
		}
	}
	return fmt.Errorf("lp: constraint %q has no term for variable %d", p.cons[i].name, v)
}

// NumVariables returns the number of decision variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Stats counts the work and the recovery actions of one solve (the warm
// attempt and any cold fallback combined), so callers can observe not just
// whether a solve succeeded but what the solver had to do to get there.
type Stats struct {
	// Pivots is the number of basis exchanges across all phases.
	Pivots int
	// BoundFlips counts iterations resolved by flipping a nonbasic column
	// between its bounds with no basis change.
	BoundFlips int
	// Refactorizations counts from-scratch LU factorizations of the basis.
	Refactorizations int
	// BlandSwitches counts pricing switches to Bland's rule, whether by the
	// degenerate-stall detector or the iteration-count backstop.
	BlandSwitches int
	// ColdFallbacks counts warm starts abandoned for a cold two-phase solve.
	ColdFallbacks int
	// Repairs counts singular-basis repairs: a basic column ejected for the
	// slack (or artificial) of an unpivotable row, followed by a
	// refactorization retry.
	Repairs int
	// NaNGuards counts FTRAN/BTRAN outputs caught carrying NaN/Inf and
	// answered with a refactorization instead of a poisoned pivot.
	NaNGuards int
	// PartialPasses and CandidateRebuilds counted the work of
	// candidate-list partial pricing, which the solver no longer runs (no
	// model it was built for reached its width gate).  They stay in the
	// struct so the plannerd journal format and its readers keep working.
	//
	// Deprecated: always zero.
	PartialPasses int
	// Deprecated: always zero.
	CandidateRebuilds int
	// DevexResets counts devex reference-framework resets after the
	// framework had learned from at least one pivot: weight drift past the
	// ratio bound, a refactorization or basis repair discarding the eta
	// file the weights were learned through, or the Bland stall latch
	// releasing pricing back to devex.
	DevexResets int
	// RowsRemoved, ColsRemoved and PresolveNanos counted the work of a
	// model reduction pass the solver no longer runs.  They stay in the
	// struct so the plannerd journal format and its readers keep working.
	//
	// Deprecated: always zero.
	RowsRemoved int
	// Deprecated: always zero.
	ColsRemoved int
	// Deprecated: always zero.
	PresolveNanos int64
}

// Add accumulates o into s field by field; callers that drive many solves
// (milp's branch-and-bound nodes) use it to report aggregate LP work.
func (s *Stats) Add(o Stats) {
	s.Pivots += o.Pivots
	s.BoundFlips += o.BoundFlips
	s.Refactorizations += o.Refactorizations
	s.BlandSwitches += o.BlandSwitches
	s.ColdFallbacks += o.ColdFallbacks
	s.Repairs += o.Repairs
	s.NaNGuards += o.NaNGuards
	s.PartialPasses += o.PartialPasses
	s.CandidateRebuilds += o.CandidateRebuilds
	s.DevexResets += o.DevexResets
	s.RowsRemoved += o.RowsRemoved
	s.ColsRemoved += o.ColsRemoved
	s.PresolveNanos += o.PresolveNanos
}

// SolveOptions bounds a solve.  The zero value imposes no budget and is
// exactly Solve/SolveFrom.
type SolveOptions struct {
	// Deadline, when nonzero, is the wall-clock instant after which the
	// solve stops and returns ErrDeadline.  The check runs between pivots, so
	// a solve overruns by at most one iteration's work.
	Deadline time.Time
	// Ctx, when non-nil, is polled between pivots; cancellation stops the
	// solve with ErrCancelled, and a passed context deadline with
	// ErrDeadline.
	Ctx context.Context
}

// solveControl is the internal form of SolveOptions threaded into the
// simplex loops.
type solveControl struct {
	deadline time.Time
	ctx      context.Context
	// maxIters, when positive and set only by tests, replaces the default
	// per-phase iteration cap (30·(rows+cols), floor 2000); exceeding it
	// fails the solve with ErrNumeric.
	maxIters int
	// ref, set only by tests, replaces devex with a reference pricing rule
	// (pricing_ref_test.go).  It is deliberately not a budget: it changes
	// which pivots are taken, never whether limits are polled.
	ref func(*solver) pricer
}

// active reports whether any budget is set, so unbudgeted solves skip the
// per-iteration checks entirely and stay bit-identical to the pre-options
// solver.
func (c *solveControl) active() bool {
	return c.ctx != nil || !c.deadline.IsZero() || c.maxIters > 0
}

// Solution is the result of solving a problem.
type Solution struct {
	Status    Status
	Objective float64
	// Stats records the work and recovery actions of the solve.
	Stats  Stats
	values []float64
	basis  *Basis
}

// Value returns the optimal value of a variable.
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.values) {
		return math.NaN()
	}
	return s.values[v]
}

// Values returns a copy of all variable values in declaration order.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Basis returns the optimal simplex basis of this solve, or nil when the
// solve did not end Optimal.  Pass it to SolveFrom to warm-start a re-solve
// of the same problem (or a mutated copy of it) from this vertex.
func (s *Solution) Basis() *Basis {
	if s == nil || s.Status != Optimal {
		return nil
	}
	return s.basis
}

// Errors returned by Solve.  ErrDeadline and ErrCancelled wrap the matching
// context errors, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) also hold.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrNumeric    = errors.New("lp: numerical failure (iteration limit reached)")
	ErrDeadline   = fmt.Errorf("lp: solve deadline exceeded: %w", context.DeadlineExceeded)
	ErrCancelled  = fmt.Errorf("lp: solve cancelled: %w", context.Canceled)
)

const (
	epsilon      = 1e-9
	pivotEpsilon = 1e-10
)

// Solve runs the two-phase revised simplex method.  On success the returned
// Solution has Status Optimal; infeasible and unbounded problems return a
// Solution with the corresponding status together with ErrInfeasible or
// ErrUnbounded.
func (p *Problem) Solve() (*Solution, error) { return p.SolveFromWithOptions(nil, SolveOptions{}) }

// SolveWithOptions is Solve under the given budgets.
func (p *Problem) SolveWithOptions(opts SolveOptions) (*Solution, error) {
	return p.SolveFromWithOptions(nil, opts)
}

// SolveFrom is Solve warm-started from a previous solve's Basis.  The basis
// is mapped onto the current standard form by model-level identity; if it no
// longer translates (variables or constraints were added, a free variable
// became bounded, the basis matrix went singular), SolveFrom silently falls
// back to a cold solve, so a stale basis can cost time but never
// correctness.  A nil basis is exactly Solve.
//
// Every solve starts from the standard form the Problem kept from its last
// solve, with the edits since then written into it.  It is laid out afresh
// — columns, slacks, artificials and sparsity pattern — only on the first
// solve and after an edit the kept layout cannot hold: AddVariable,
// AddConstraint, a variable whose bounds change form (a finite lower bound,
// only a finite upper bound, or neither), a constraint whose right-hand
// side, net of the bound shifts, changes sign, or a coefficient (summed
// over duplicate terms) moving to or from zero.  Either way the result is
// bit-identical to a solve of a freshly built Problem with the same data.
func (p *Problem) SolveFrom(warm *Basis) (*Solution, error) {
	return p.SolveFromWithOptions(warm, SolveOptions{})
}

// SolveFromWithOptions is SolveFrom under the given budgets.  Any failure of
// the warm attempt short of a budget stop falls back to one cold solve (a
// deadline or cancellation is final: there is no budget left to retry on);
// recovery actions along the way are reported in the Solution's Stats.
func (p *Problem) SolveFromWithOptions(warm *Basis, opts SolveOptions) (*Solution, error) {
	return p.solveFrom(warm, &solveControl{deadline: opts.Deadline, ctx: opts.Ctx})
}

func (p *Problem) solveFrom(warm *Basis, ctl *solveControl) (*Solution, error) {
	stats := &p.scr.stats
	*stats = Stats{}
	std := p.standardize()
	status, values, basis := std.solve(warm, ctl, stats)
	p.scr.sv.ctl = solveControl{} // the kept solver holds no caller context
	switch status {
	case Infeasible:
		return &Solution{Status: Infeasible, Stats: *stats}, ErrInfeasible
	case Unbounded:
		return &Solution{Status: Unbounded, Stats: *stats}, ErrUnbounded
	case statusDeadline:
		return nil, ErrDeadline
	case statusCancelled:
		return nil, ErrCancelled
	case Optimal:
		orig := std.recover(values)
		// Recompute the objective from the original variables so that
		// lower-bound shifts and sense flips cannot skew it.
		obj := 0.0
		for j, v := range p.vars {
			obj += v.cost * orig[j]
		}
		return &Solution{Status: Optimal, Objective: obj, Stats: *stats, values: orig, basis: basis}, nil
	default:
		return nil, ErrNumeric
	}
}
