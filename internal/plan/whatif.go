package plan

import (
	"errors"
	"fmt"
	"sync"

	"greencloud/internal/core"
)

// maxWhatIfSessions caps the number of live what-if sessions; creating one
// past the cap evicts the least recently used session.  Each session owns a
// core.Evaluator (preallocated scratch for one spec), so the cap bounds the
// daemon's memory under many concurrent planners.
const maxWhatIfSessions = 64

// ErrNoSession rejects a what-if query against an unknown closed session.
var ErrNoSession = errors.New("plan: no such what-if session")

// WhatIfRequest is the body of POST /whatif: price a hypothetical siting
// against the daemon's location catalog without disturbing the live plan.
//
// Sessions make repeated queries cheap: the first request naming a session
// builds a per-session evaluator from the request's spec knobs, and later
// requests with the same session name reuse its per-catalog tables and
// scratch buffers instead of rebuilding them (the spec knobs are then
// ignored); every query is priced in full.  Omitting Session prices the
// query against a one-shot evaluator.  Set Close to tear a session down.
type WhatIfRequest struct {
	Session string `json:"session,omitempty"`
	Close   bool   `json:"close,omitempty"`

	// Spec knobs, applied on top of core.DefaultSpec when the session (or
	// one-shot evaluator) is created.  TotalCapacityKW defaults to the
	// daemon fleet's power draw, MinGreenFraction to the paper's 0.5.
	TotalCapacityKW  float64  `json:"total_capacity_kw,omitempty"`
	MinGreenFraction *float64 `json:"min_green_fraction,omitempty"`

	// Candidates is the siting to price: catalog sites by name, each with
	// a compute capacity.  Empty candidates price the daemon's own
	// datacenters, each sized to the full network capacity (the trace's
	// any-site-can-host-the-fleet shape).
	Candidates []WhatIfCandidate `json:"candidates,omitempty"`
}

// WhatIfCandidate names one hypothetical datacenter site.
type WhatIfCandidate struct {
	Site       string  `json:"site"`
	CapacityKW float64 `json:"capacity_kw,omitempty"` // default: the spec's total capacity
}

// WhatIfResponse is the priced outcome of a what-if query.
type WhatIfResponse struct {
	Session       string   `json:"session,omitempty"`
	Sites         []string `json:"sites"`
	MonthlyUSD    float64  `json:"monthly_usd"`
	GreenFraction float64  `json:"green_fraction"`
	Feasible      bool     `json:"feasible"`
}

// whatifSession is one live session: its evaluator plus the mutex that
// serializes it (an Evaluator's scratch is single-threaded; concurrency
// across sessions is free).
type whatifSession struct {
	mu   sync.Mutex
	eval *core.Evaluator
}

// sessionStore is the daemon's session table with LRU eviction.
type sessionStore struct {
	d  *Daemon
	mu sync.Mutex
	// byName holds the live sessions; order is the LRU list, most recent
	// last.
	byName map[string]*whatifSession
	order  []string
}

func (ss *sessionStore) init(d *Daemon) {
	ss.d = d
	ss.byName = make(map[string]*whatifSession)
}

// touch moves name to the most-recently-used end of the order.
func (ss *sessionStore) touch(name string) {
	for i, n := range ss.order {
		if n == name {
			ss.order = append(ss.order[:i], ss.order[i+1:]...)
			break
		}
	}
	ss.order = append(ss.order, name)
}

// get returns the named session, creating it with build on first use.
// Callers must not hold ss.mu.
func (ss *sessionStore) get(name string, build func() (*core.Evaluator, error)) (*whatifSession, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s, ok := ss.byName[name]; ok {
		ss.touch(name)
		return s, nil
	}
	eval, err := build()
	if err != nil {
		return nil, err
	}
	if len(ss.order) >= maxWhatIfSessions {
		oldest := ss.order[0]
		ss.order = ss.order[1:]
		delete(ss.byName, oldest)
	}
	s := &whatifSession{eval: eval}
	ss.byName[name] = s
	ss.touch(name)
	return s, nil
}

func (ss *sessionStore) close(name string) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.byName[name]; !ok {
		return false
	}
	delete(ss.byName, name)
	for i, n := range ss.order {
		if n == name {
			ss.order = append(ss.order[:i], ss.order[i+1:]...)
			break
		}
	}
	return true
}

// whatifSpec derives the evaluator spec for a request.
func (d *Daemon) whatifSpec(req *WhatIfRequest) core.Spec {
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = 0
	for _, dc := range d.trace.Datacenters {
		spec.TotalCapacityKW += dc.CapacityKW
	}
	if req.TotalCapacityKW > 0 {
		spec.TotalCapacityKW = req.TotalCapacityKW
	}
	if req.MinGreenFraction != nil {
		spec.MinGreenFraction = *req.MinGreenFraction
	}
	return spec
}

// whatifCandidates resolves the request's sites against the catalog.
func (d *Daemon) whatifCandidates(req *WhatIfRequest, spec core.Spec) ([]core.Candidate, []string, error) {
	names := make([]string, 0, len(req.Candidates))
	var cands []core.Candidate
	if len(req.Candidates) == 0 {
		for _, dc := range d.trace.Datacenters {
			cands = append(cands, core.Candidate{SiteID: dc.Site.ID, CapacityKW: spec.TotalCapacityKW})
			names = append(names, dc.Name)
		}
		return cands, names, nil
	}
	byName := make(map[string]int, len(d.catalog.Sites()))
	for _, site := range d.catalog.Sites() {
		byName[site.Name] = site.ID
	}
	for _, c := range req.Candidates {
		id, ok := byName[c.Site]
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown site %q", c.Site)
		}
		capKW := c.CapacityKW
		if capKW <= 0 {
			capKW = spec.TotalCapacityKW
		}
		cands = append(cands, core.Candidate{SiteID: id, CapacityKW: capKW})
		names = append(names, c.Site)
	}
	return cands, names, nil
}

// WhatIf prices a hypothetical siting.  Safe for concurrent use: distinct
// sessions evaluate in parallel; queries within one session serialize on its
// evaluator.
func (d *Daemon) WhatIf(req WhatIfRequest) (WhatIfResponse, error) {
	if err := d.ctx.Err(); err != nil {
		return WhatIfResponse{}, fmt.Errorf("%w: %v", ErrShuttingDown, err)
	}
	if req.Close {
		if req.Session == "" || !d.sessions.close(req.Session) {
			return WhatIfResponse{}, ErrNoSession
		}
		return WhatIfResponse{Session: req.Session}, nil
	}
	spec := d.whatifSpec(&req)
	cands, names, err := d.whatifCandidates(&req, spec)
	if err != nil {
		return WhatIfResponse{}, err
	}

	var summary core.CostSummary
	if req.Session == "" {
		eval, err := core.NewEvaluator(d.catalog, spec)
		if err != nil {
			return WhatIfResponse{}, err
		}
		if summary, err = eval.EvaluateCost(cands); err != nil {
			return WhatIfResponse{}, err
		}
	} else {
		sess, err := d.sessions.get(req.Session, func() (*core.Evaluator, error) {
			return core.NewEvaluator(d.catalog, spec)
		})
		if err != nil {
			return WhatIfResponse{}, err
		}
		sess.mu.Lock()
		summary, err = sess.eval.EvaluateCost(cands)
		sess.mu.Unlock()
		if err != nil {
			return WhatIfResponse{}, err
		}
	}
	return WhatIfResponse{
		Session:       req.Session,
		Sites:         names,
		MonthlyUSD:    summary.MonthlyUSD,
		GreenFraction: summary.GreenFraction,
		Feasible:      summary.Feasible,
	}, nil
}
