package costmodel

import "repro/internal/planner"

// Planner surface: a miniature cost-based physical optimizer built on
// the model — the consumer the paper designed the model for. Given a
// logical query and its data volumes it searches the physical plans,
// costs each one's access pattern, and ranks them cheapest first.
//
// Planner.QueryCandidatesSearch / QueryPlansSearch /
// BestQueryPlanSearch rank whole query plans (join tree plus an
// algorithm choice per operator), searched by the two-phase DP
// optimizer — memoized connected subgraphs, bushy trees, top-k
// pruning, exact re-cost of the survivors (docs/optimizer.md).
// SearchOptions tune the search (strategy, top-k, bushy on/off); the
// zero value is the default. A single operator's algorithm choice is
// a 1-relation query (aggregate, distinct) or a 2-relation query
// (join). Package repro/pkg/costmodel/scenario wraps these entry
// points with the query type and a ready-made scenario catalog.
type (
	// Planner costs candidate plans on one hardware profile.
	Planner = planner.Planner
	// Relation describes an input's logical properties (cardinality,
	// tuple width, sortedness).
	Relation = planner.Relation
	// Plan is one costed physical alternative.
	Plan = planner.Plan
	// Candidate is one enumerated physical alternative with its access
	// pattern compiled once into the cost IR; re-score it on any
	// profile with ScorePlans without re-compiling.
	Candidate = planner.Candidate
	// Algorithm identifies a physical operator implementation.
	Algorithm = planner.Algorithm
	// CPUCosts are the per-tuple T_cpu constants per algorithm step.
	CPUCosts = planner.CPUCosts
	// SearchOptions tune the query-plan search (strategy, memo top-k,
	// bushy on/off) for Planner.QueryCandidatesSearch and friends; the
	// zero value is the DP search with defaults.
	SearchOptions = planner.SearchOptions
	// SearchStrategy selects the plan-space search engine.
	SearchStrategy = planner.SearchStrategy
)

// The plan-space search strategies: the memoized DP search over
// connected subgraphs (default) and the exhaustive left-deep oracle.
const (
	SearchDP         = planner.SearchDP
	SearchExhaustive = planner.SearchExhaustive
)

// ScorePlans costs every candidate on the hierarchy from its compiled
// program (no re-compilation) and returns the plans sorted cheapest
// first. Enumerate with Planner.QueryCandidatesSearch (or
// scenario.Candidates), then score the same candidates across as many
// profiles as needed.
func ScorePlans(h *Hierarchy, cands []Candidate) []Plan { return planner.ScoreOn(h, cands) }

// The planner's physical algorithm inventory, re-exported.
const (
	NestedLoopJoin      = planner.NestedLoopJoin
	MergeJoin           = planner.MergeJoin
	SortMergeJoin       = planner.SortMergeJoin
	HashJoin            = planner.HashJoin
	PartitionedHashJoin = planner.PartitionedHashJoin
	QuickSort           = planner.QuickSort
	HashAggregate       = planner.HashAggregate
	SortAggregate       = planner.SortAggregate
	HashDistinct        = planner.HashDistinct
	SortDistinct        = planner.SortDistinct
)

// NewPlanner creates a planner for the hierarchy.
func NewPlanner(h *Hierarchy) (*Planner, error) { return planner.New(h) }

// DefaultCPUCosts returns the planner's default per-tuple CPU cost
// constants.
func DefaultCPUCosts() CPUCosts { return planner.DefaultCPU() }
