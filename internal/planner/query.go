package planner

import (
	"fmt"
	"sort"

	"repro/internal/costir"
	"repro/internal/pattern"
	"repro/internal/queryplan"
)

// Plan-level planning: the Query entry points rank whole query plans —
// join order plus an algorithm choice per operator — by lowering each
// queryplan.Plan to one compound pattern (Eq. 5.2 threads cache state
// across the operators) and compiling it once into the cost IR. The
// resulting Candidates re-score across hardware profiles through
// ScoreOn; Candidate.Algorithm carries the plan signature.
//
// The search layer is the two-phase DP optimizer (see
// internal/queryplan/dp.go and docs/optimizer.md): phase 1 prunes the
// plan space with memoized, context-free subplan bounds; the exact
// lowering + IR evaluation here is phase 2, so the surviving plans are
// ranked bit-compatibly with the paper's algebra. SearchOptions select
// the DP search (the zero value) or the exhaustive left-deep oracle.

// SearchOptions tune the plan-space search (strategy, memo top-k,
// bushy on/off); the zero value is the DP search with defaults.
type SearchOptions = queryplan.SearchOptions

// SearchStrategy selects the plan-space search engine.
type SearchStrategy = queryplan.SearchStrategy

// The search strategies.
const (
	SearchDP         = queryplan.SearchDP
	SearchExhaustive = queryplan.SearchExhaustive
)

// QueryCandidatesSearch enumerates the physical plans of a logical
// query with the given search options (DP over connected subgraphs by
// default, or the exhaustive left-deep oracle), lowers each surviving
// plan to its compound access pattern, and compiles it exactly once.
// Quick-sort patterns are pruned at the planner's smallest cache
// capacity; the DP search prices its context-free subplan bounds on the
// planner's own hierarchy.
//
// Cost-equivalent plans collapse: two plans whose patterns share a
// canonical form and whose CPU estimates agree — e.g. the two build
// sides of a symmetric hash join — are priced identically on every
// hierarchy, so only the first enumerated signature is kept.
func (pl *Planner) QueryCandidatesSearch(q queryplan.Query, so SearchOptions) ([]Candidate, error) {
	cs, err := pl.queryCandidateTrees(q, so)
	if err != nil {
		return nil, err
	}
	return cs.cands, nil
}

// candidateTrees carries deduplicated candidates alongside the plan
// trees they were lowered from, index-aligned.
type candidateTrees struct {
	cands []Candidate
	trees []*queryplan.Plan
}

func (pl *Planner) queryCandidateTrees(q queryplan.Query, so SearchOptions) (candidateTrees, error) {
	plans, err := queryplan.Search(q, queryplan.Options{
		CPU:        DefaultCPU(),
		PruneBytes: pl.minCapacity(),
		Search:     so,
	}, pl.hier)
	if err != nil {
		return candidateTrees{}, err
	}
	cs := candidateTrees{
		cands: make([]Candidate, 0, len(plans)),
		trees: make([]*queryplan.Plan, 0, len(plans)),
	}
	seen := make(map[string]bool, len(plans))
	for _, p := range plans {
		pat, cpuNS, err := pl.lower(p)
		if err != nil {
			return candidateTrees{}, err
		}
		canon, err := costir.CanonicalKey(pat)
		if err != nil {
			return candidateTrees{}, fmt.Errorf("planner: canonicalizing plan %s: %w", p.Signature(), err)
		}
		key := fmt.Sprintf("%s|%.17g", canon, cpuNS)
		if seen[key] {
			continue
		}
		seen[key] = true
		c, err := newCandidate(p, pat, cpuNS)
		if err != nil {
			return candidateTrees{}, err
		}
		cs.cands = append(cs.cands, c)
		cs.trees = append(cs.trees, p)
	}
	return cs, nil
}

// lower lowers a plan tree to its compound access pattern and CPU
// estimate, pruning quick-sort recursion at the planner's smallest
// cache capacity. Searched plans (after dedup) and re-scored plans
// both go through lower and then newCandidate.
func (pl *Planner) lower(t *queryplan.Plan) (pattern.Pattern, float64, error) {
	pat, cpuNS, err := t.Lower(DefaultCPU(), pl.minCapacity())
	if err != nil {
		return nil, 0, fmt.Errorf("planner: lowering plan %s: %w", t.Signature(), err)
	}
	return pat, cpuNS, nil
}

// newCandidate compiles a lowered plan once and wraps it as a
// Candidate.
func newCandidate(t *queryplan.Plan, pat pattern.Pattern, cpuNS float64) (Candidate, error) {
	prog, err := costir.Compile(pat)
	if err != nil {
		return Candidate{}, fmt.Errorf("planner: compiling plan %s: %w", t.Signature(), err)
	}
	return Candidate{Algorithm: Algorithm(t.Signature()), Pattern: pat, Compiled: prog, Fanout: t.Fanout, CPUNS: cpuNS}, nil
}

// QueryPlansSearch enumerates with the given search options and costs
// the surviving plans on the planner's own hierarchy, sorted cheapest
// first — the exact phase-2 re-cost of the DP optimizer.
// Plan.Algorithm holds the plan signature (join order, join
// algorithms, grouping variant).
func (pl *Planner) QueryPlansSearch(q queryplan.Query, so SearchOptions) ([]Plan, error) {
	costed, err := pl.QueryCostedTreesSearch(q, so)
	if err != nil {
		return nil, err
	}
	plans := make([]Plan, len(costed))
	for i, ct := range costed {
		plans[i] = ct.Plan
	}
	return plans, nil
}

// CostedTree pairs one costed ranking entry with the physical plan
// tree it was lowered from — the raw material a serving-tier plan
// cache turns into relabelable recipes (queryplan.NewRecipe).
type CostedTree struct {
	Plan Plan
	Tree *queryplan.Plan
}

// QueryCostedTreesSearch is QueryPlansSearch keeping the plan trees:
// the same search, lowering, cost-equivalence dedup and cheapest-first
// ranking, with each entry still attached to its tree.
func (pl *Planner) QueryCostedTreesSearch(q queryplan.Query, so SearchOptions) ([]CostedTree, error) {
	cs, err := pl.queryCandidateTrees(q, so)
	if err != nil {
		return nil, err
	}
	costed := make([]CostedTree, len(cs.cands))
	for i, c := range cs.cands {
		costed[i] = CostedTree{Plan: c.PlanOn(pl.hier), Tree: cs.trees[i]}
	}
	sort.SliceStable(costed, func(i, j int) bool { return costed[i].Plan.TotalNS() < costed[j].Plan.TotalNS() })
	return costed, nil
}

// ScoreQueryPlans lowers, compiles and costs the given physical plan
// trees on the planner's own hierarchy, returning one costed Plan per
// tree in input order — no search, no dedup, no sorting. This is the
// plan cache's re-validation primitive: cached recipes re-bound to a
// drifted query are re-scored here instead of re-running the
// plan-space search. Every plan is recompiled and evaluated, so this
// is not microseconds: in the serving benchmark's plan-drift workload
// (seed 7) a revalidation averages 24 ms on a 2-vCPU Xeon VM, 96% of
// it here re-scoring five re-bound plans (perfbench/README.md).
func (pl *Planner) ScoreQueryPlans(trees []*queryplan.Plan) ([]Plan, error) {
	out := make([]Plan, len(trees))
	for i, t := range trees {
		pat, cpuNS, err := pl.lower(t)
		if err != nil {
			return nil, err
		}
		c, err := newCandidate(t, pat, cpuNS)
		if err != nil {
			return nil, err
		}
		out[i] = c.PlanOn(pl.hier)
	}
	return out, nil
}

// BestQueryPlanSearch returns the cheapest plan for q on the planner's
// hierarchy under the given search options.
func (pl *Planner) BestQueryPlanSearch(q queryplan.Query, so SearchOptions) (Plan, error) {
	plans, err := pl.QueryPlansSearch(q, so)
	if err != nil {
		return Plan{}, err
	}
	return plans[0], nil
}
