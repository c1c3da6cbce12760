// Package milp adds mixed-integer support on top of the internal/lp simplex
// solver via best-first branch and bound.
//
// The paper formulates datacenter siting as a MILP (binary "is a datacenter
// placed at location d" variables on top of the continuous provisioning
// variables) and GreenNebula's workload partitioning as a small MILP.  This
// package solves such problems exactly for moderate sizes: it relaxes the
// integrality constraints, solves the LP relaxation, and branches on the most
// fractional integer variable until the gap closes.
package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"greencloud/internal/lp"
)

// Problem is a mixed-integer linear program: an lp.Problem plus a set of
// variables constrained to take integer values.
type Problem struct {
	sense    lp.Sense
	lpProto  *builderProto
	integers map[lp.Var]bool

	// relax is the shared LP relaxation: built once, then re-solved at
	// every branch-and-bound node with only the branch bounds mutated
	// (lp.SetBounds) and the parent node's basis as a warm start.  Bound
	// tightening keeps the parent's optimal basis dual-feasible, so child
	// relaxations restart with a few dual-simplex pivots instead of a
	// from-scratch phase 1.
	relax     *lp.Problem
	relaxVars int
	relaxCons int
}

// builderProto records the model so the shared relaxation can be rebuilt
// (and per-node bounds reset) at every branch-and-bound node.
type builderProto struct {
	vars []protoVar
	cons []protoCon
}

type protoVar struct {
	name string
	lb   float64
	ub   float64
	cost float64
}

type protoCon struct {
	name  string
	op    lp.Op
	rhs   float64
	terms []lp.Term
}

// NewProblem returns an empty mixed-integer problem.
func NewProblem(sense lp.Sense) *Problem {
	return &Problem{
		sense:    sense,
		lpProto:  &builderProto{},
		integers: make(map[lp.Var]bool),
	}
}

// AddVariable adds a continuous variable.
func (p *Problem) AddVariable(name string, lb, ub, cost float64) (lp.Var, error) {
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(cost) {
		return -1, fmt.Errorf("milp: variable %q has NaN bounds or cost", name)
	}
	if ub < lb {
		return -1, fmt.Errorf("milp: variable %q has upper bound below lower bound", name)
	}
	p.lpProto.vars = append(p.lpProto.vars, protoVar{name: name, lb: lb, ub: ub, cost: cost})
	return lp.Var(len(p.lpProto.vars) - 1), nil
}

// AddIntegerVariable adds a variable constrained to integer values.
func (p *Problem) AddIntegerVariable(name string, lb, ub, cost float64) (lp.Var, error) {
	v, err := p.AddVariable(name, lb, ub, cost)
	if err != nil {
		return v, err
	}
	p.integers[v] = true
	return v, nil
}

// AddBinaryVariable adds a 0/1 variable.
func (p *Problem) AddBinaryVariable(name string, cost float64) (lp.Var, error) {
	return p.AddIntegerVariable(name, 0, 1, cost)
}

// AddConstraint adds a linear constraint.
func (p *Problem) AddConstraint(name string, op lp.Op, rhs float64, terms ...lp.Term) error {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.lpProto.vars) {
			return fmt.Errorf("milp: constraint %q references unknown variable %d", name, t.Var)
		}
	}
	copied := make([]lp.Term, len(terms))
	copy(copied, terms)
	p.lpProto.cons = append(p.lpProto.cons, protoCon{name: name, op: op, rhs: rhs, terms: copied})
	return nil
}

// Solution is the result of a MILP solve.
type Solution struct {
	Objective float64
	values    []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proven is true when the search closed: the solution is optimal.  A
	// solve stopped by a node, deadline or cancellation budget returns its
	// best incumbent with Proven false and the residual Gap instead.
	Proven bool
	// Gap is the relative gap |incumbent − bound| / max(1, |incumbent|)
	// between the incumbent and the best open-node relaxation bound at the
	// moment the search stopped (0 when Proven).
	Gap float64
	// LPStats aggregates the simplex work of every node relaxation solved
	// during the search — including pruned and infeasible nodes, whose
	// simplex work is real even though they produced no incumbent.
	// LPStats.ColdFallbacks counts warm starts that had to be abandoned; a
	// healthy branch-and-bound run keeps it at zero beyond the
	// (intentionally cold) root node.
	LPStats lp.Stats
}

// Value returns the value of a variable in the best solution found.
func (s *Solution) Value(v lp.Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.values) {
		return math.NaN()
	}
	return s.values[v]
}

// Errors returned by Solve.  The budget errors (ErrNodeLimit, ErrDeadline,
// ErrCancelled) are only returned when the budget ran out before ANY feasible
// integer solution was found; with an incumbent in hand the solve returns it
// with a nil error, Proven false and the residual Gap instead.
var (
	ErrInfeasible = errors.New("milp: problem is infeasible")
	ErrUnbounded  = errors.New("milp: relaxation is unbounded")
	ErrNodeLimit  = errors.New("milp: node limit reached without finding a feasible solution")
	ErrDeadline   = fmt.Errorf("milp: deadline exceeded before finding a feasible solution: %w", context.DeadlineExceeded)
	ErrCancelled  = fmt.Errorf("milp: solve cancelled: %w", context.Canceled)
)

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of explored nodes (0 means a generous
	// default).
	MaxNodes int
	// Ctx, when non-nil, cancels the search cooperatively between nodes and
	// between simplex iterations inside a node.  A context deadline bounds
	// the wall-clock time of the search: the best incumbent is returned with
	// its bound gap, or ErrDeadline when there is none yet.
	Ctx context.Context
}

// integralityTol is the tolerance for treating a value as integral.
const integralityTol = 1e-6

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 20000
	}
	return o
}

// bound is an extra variable bound imposed along a branch.
type bound struct {
	v  lp.Var
	lo float64
	hi float64
}

// node is one branch-and-bound node.
type node struct {
	bounds []bound
	// relaxation objective of the parent, used for best-first ordering.
	parentObj float64
	// basis is the parent relaxation's optimal basis; the node's own
	// relaxation warm-starts from it (dual-feasible restart).
	basis *lp.Basis
}

// Solve runs branch and bound with default options.
func (p *Problem) Solve() (*Solution, error) { return p.SolveWithOptions(Options{}) }

// SolveWithOptions runs branch and bound.
func (p *Problem) SolveWithOptions(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	lpOpts := lp.SolveOptions{Ctx: opts.Ctx}

	if len(p.integers) == 0 {
		sol, err := p.solveRelaxation(nil, nil, lpOpts)
		if err != nil {
			return nil, convertLPFailure(err)
		}
		return &Solution{Objective: sol.Objective, values: sol.Values(),
			Nodes: 1, Proven: true, LPStats: sol.Stats}, nil
	}

	better := func(a, b float64) bool {
		if p.sense == lp.Minimize {
			return a < b
		}
		return a > b
	}

	var (
		best      *Solution
		nodesDone int
		incumbent = math.Inf(1)
		queue     []node
		lpStats   lp.Stats // aggregate simplex work across every node
	)
	if p.sense == lp.Maximize {
		incumbent = math.Inf(-1)
	}
	queue = append(queue, node{})

	for len(queue) > 0 {
		if stopErr := budgetStop(opts, nodesDone); stopErr != nil {
			if best != nil {
				best.LPStats = lpStats
				return finishPartial(best, nodesDone, queue, incumbent, better), nil
			}
			return nil, stopErr
		}
		// Best-first: pick the node with the most promising parent bound.
		sort.Slice(queue, func(i, j int) bool {
			return better(queue[i].parentObj, queue[j].parentObj)
		})
		current := queue[0]
		queue = queue[1:]
		nodesDone++

		relax, err := p.solveRelaxation(current.bounds, current.basis, lpOpts)
		if relax != nil {
			lpStats.Add(relax.Stats) // pruned nodes did simplex work too
		}
		if err != nil {
			if errors.Is(err, lp.ErrInfeasible) {
				continue // prune
			}
			if errors.Is(err, lp.ErrUnbounded) {
				// An unbounded relaxation at the root means the MILP is
				// unbounded (or needs bounds we don't have); deeper nodes
				// only make the problem more constrained.
				if nodesDone == 1 {
					return nil, ErrUnbounded
				}
				continue
			}
			if errors.Is(err, lp.ErrDeadline) || errors.Is(err, lp.ErrCancelled) {
				// The budget expired inside a node relaxation.  The current
				// node goes back on the queue so its bound still counts
				// toward the reported gap.
				if best != nil {
					best.LPStats = lpStats
					queue = append(queue, current)
					return finishPartial(best, nodesDone, queue, incumbent, better), nil
				}
				if errors.Is(err, lp.ErrDeadline) {
					return nil, ErrDeadline
				}
				return nil, ErrCancelled
			}
			return nil, err
		}

		// Bound: prune if the relaxation cannot beat the incumbent.
		if best != nil && !better(relax.Objective, incumbent) {
			continue
		}

		// Find the most fractional integer variable.  Iterate in variable
		// order (not map order) so ties break deterministically and node
		// counts are reproducible run to run.
		branchVar := lp.Var(-1)
		worstFrac := integralityTol
		for v := 0; v < len(p.lpProto.vars); v++ {
			if !p.integers[lp.Var(v)] {
				continue
			}
			val := relax.Value(lp.Var(v))
			frac := math.Abs(val - math.Round(val))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = lp.Var(v)
			}
		}

		if branchVar == -1 {
			// Integral solution.
			if best == nil || better(relax.Objective, incumbent) {
				vals := relax.Values()
				// Snap integer values exactly.
				for v := range p.integers {
					vals[v] = math.Round(vals[v])
				}
				best = &Solution{Objective: relax.Objective, values: vals}
				incumbent = relax.Objective
			}
			continue
		}

		// Branch.  Children inherit this node's optimal basis: tightening
		// one variable bound keeps it dual-feasible, so each child
		// re-solves with a dual-simplex restart instead of phase 1.
		val := relax.Value(branchVar)
		floor := math.Floor(val)
		ceil := math.Ceil(val)
		down := append(append([]bound{}, current.bounds...), bound{v: branchVar, lo: math.Inf(-1), hi: floor})
		up := append(append([]bound{}, current.bounds...), bound{v: branchVar, lo: ceil, hi: math.Inf(1)})
		queue = append(queue,
			node{bounds: down, parentObj: relax.Objective, basis: relax.Basis()},
			node{bounds: up, parentObj: relax.Objective, basis: relax.Basis()},
		)
	}

	if best == nil {
		return nil, ErrInfeasible
	}
	best.Nodes = nodesDone
	best.Proven = true
	best.LPStats = lpStats
	return best, nil
}

// budgetStop reports the applicable budget error when the search must stop
// before exploring another node, or nil to continue.
func budgetStop(opts Options, nodesDone int) error {
	if nodesDone >= opts.MaxNodes {
		return ErrNodeLimit
	}
	if opts.Ctx != nil {
		select {
		case <-opts.Ctx.Done():
			if errors.Is(opts.Ctx.Err(), context.DeadlineExceeded) {
				return ErrDeadline
			}
			return ErrCancelled
		default:
		}
	}
	return nil
}

// finishPartial stamps a budget-stopped incumbent with its node count and the
// residual bound gap computed from the open queue (the root node carries no
// bound of its own and is skipped).
func finishPartial(best *Solution, nodesDone int, queue []node, incumbent float64, better func(a, b float64) bool) *Solution {
	best.Nodes = nodesDone
	best.Proven = false
	bound := incumbent
	for _, nd := range queue {
		if nd.basis != nil && better(nd.parentObj, bound) {
			bound = nd.parentObj
		}
	}
	best.Gap = math.Abs(incumbent-bound) / math.Max(1, math.Abs(incumbent))
	return best
}

// solveRelaxation solves the LP relaxation with extra branch bounds applied,
// warm-started from the parent node's basis.  The relaxation Problem is
// shared across all nodes: only variable bounds change between solves, so
// each node resets every integer variable's bounds from the prototype and
// re-applies its own branch bounds (branch bounds never touch continuous
// variables).
func (p *Problem) solveRelaxation(extra []bound, warm *lp.Basis, lpOpts lp.SolveOptions) (*lp.Solution, error) {
	prob, err := p.relaxation()
	if err != nil {
		return nil, err
	}
	for v := range p.integers {
		pv := p.lpProto.vars[v]
		lo, hi := pv.lb, pv.ub
		for _, b := range extra {
			if b.v != v {
				continue
			}
			if b.lo > lo {
				lo = b.lo
			}
			if b.hi < hi {
				hi = b.hi
			}
		}
		if hi < lo {
			// This branch is empty.
			return nil, lp.ErrInfeasible
		}
		if err := prob.SetBounds(v, lo, hi); err != nil {
			return nil, err
		}
	}
	return prob.SolveFromWithOptions(warm, lpOpts)
}

// relaxation returns the shared relaxation Problem, (re)building it when the
// model grew since it was last built.
func (p *Problem) relaxation() (*lp.Problem, error) {
	if p.relax != nil && p.relaxVars == len(p.lpProto.vars) && p.relaxCons == len(p.lpProto.cons) {
		return p.relax, nil
	}
	prob := lp.NewProblem(p.sense)
	for _, pv := range p.lpProto.vars {
		if _, err := prob.AddVariable(pv.name, pv.lb, pv.ub, pv.cost); err != nil {
			return nil, err
		}
	}
	for _, pc := range p.lpProto.cons {
		if err := prob.AddConstraint(pc.name, pc.op, pc.rhs, pc.terms...); err != nil {
			return nil, err
		}
	}
	p.relax = prob
	p.relaxVars = len(p.lpProto.vars)
	p.relaxCons = len(p.lpProto.cons)
	return prob, nil
}

func convertLPFailure(err error) error {
	switch {
	case errors.Is(err, lp.ErrInfeasible):
		return ErrInfeasible
	case errors.Is(err, lp.ErrUnbounded):
		return ErrUnbounded
	default:
		return err
	}
}
