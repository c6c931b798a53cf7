package cfq

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Prepared is a compiled query bound to one strategy — the Prepare half of
// the Parse → Prepare → Execute split. It captures the dataset snapshot
// once; each Run replays the compiled query without re-resolving attributes
// or re-classifying constraints, which is what makes prepared handles (and
// the server's plan cache) cheap to re-execute.
//
// A Prepared always answers over the snapshot captured at Prepare time: a
// dataset mutated afterwards does not change the answer. Holders that must
// never serve stale answers (the server's prepared-handle path) detect the
// generation change themselves and re-prepare.
type Prepared struct {
	q     *Query
	sess  *Session
	icfq  core.CFQ
	strat Strategy
}

// Prepare compiles the query. It is PrepareContext(context.Background(),
// strat).
func (q *Query) Prepare(strat Strategy) (*Prepared, error) {
	return q.PrepareContext(context.Background(), strat)
}

// PrepareContext compiles the query for the given strategy. Compilation
// does no database work; ctx is accepted for symmetry with RunContext.
func (q *Query) PrepareContext(ctx context.Context, strat Strategy) (p *Prepared, err error) {
	defer recoverToError(&err)
	icfq, err := q.compile()
	if err != nil {
		return nil, err
	}
	return &Prepared{q: q, icfq: icfq, strat: strat}, nil
}

// Prepare binds the query to the session's cached-lattice execution path.
// Results are identical to any engine strategy, only the work differs (see
// Session).
func (s *Session) Prepare(q *Query) (*Prepared, error) {
	if q == nil || q.ds != s.ds {
		return nil, fmt.Errorf("cfq: session and query use different datasets")
	}
	icfq, err := q.compile()
	if err != nil {
		return nil, err
	}
	return &Prepared{q: q, sess: s, icfq: icfq, strat: Optimized}, nil
}

// Strategy returns the strategy the plan executes.
func (p *Prepared) Strategy() Strategy { return p.strat }

// Run executes the prepared plan. It is RunContext(context.Background()).
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the prepared plan under ctx. Each call starts a
// fresh Budget pool; cancellation, budget, and tracing semantics match
// Query.RunContext. No compilation happens here — the plan was fixed at
// Prepare time.
func (p *Prepared) RunContext(ctx context.Context) (res *Result, err error) {
	defer recoverToError(&err)
	if p.sess != nil {
		return p.sess.RunContext(ctx, p.q)
	}
	icfq := p.icfq
	start := time.Now()
	icfq.Budget = p.q.budget.internal(start)
	ires, err := core.Run(ctx, icfq, p.strat.internal())
	if err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, convertErr(err)
	}
	publishRun(time.Since(start), &ires.Stats, nil)
	res = convertResult(ires)
	res.Report = obs.FromContext(ctx).Report()
	return res, nil
}

// Explain renders the prepared plan's EXPLAIN report.
func (p *Prepared) Explain() (rep *ExplainReport, err error) {
	defer recoverToError(&err)
	return core.BuildExplain(p.icfq, p.strat.internal())
}

// ExplainAnalyzeContext executes the prepared plan and annotates the
// report with the run's attributed pruning, exactly as
// Query.ExplainAnalyzeContext does for a fixed strategy.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context) (res *Result, rep *ExplainReport, err error) {
	defer recoverToError(&err)
	if p.sess != nil {
		return nil, nil, fmt.Errorf("cfq: session-prepared queries do not support EXPLAIN ANALYZE")
	}
	rep, err = core.BuildExplain(p.icfq, p.strat.internal())
	if err != nil {
		return nil, nil, err
	}
	prune := obs.PruningFromContext(ctx)
	if prune == nil {
		prune = obs.NewPruneSet()
		ctx = obs.WithPruning(ctx, prune)
	}
	icfq := p.icfq
	start := time.Now()
	icfq.Budget = p.q.budget.internal(start)
	ires, err := core.Run(ctx, icfq, p.strat.internal())
	if err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, nil, convertErr(err)
	}
	publishRun(time.Since(start), &ires.Stats, nil)
	core.AnalyzeExplain(rep, ires, prune)
	res = convertResult(ires)
	res.Report = obs.FromContext(ctx).Report()
	return res, rep, nil
}
