// Package planner is a miniature cost-based physical optimizer built on
// the paper's cost model — the consumer the model was designed for. A
// logical query (relations, a join graph, an optional aggregate,
// distinct or order-by) plus the logical data volumes (cardinalities
// and widths, which the paper assumes a perfect oracle provides) is
// searched for its physical plans by internal/queryplan; each plan's
// compound data access pattern is compiled once into the cost IR and
// evaluated on the target hardware; the cheapest plan wins. A single
// operator is a 1-relation (aggregate, distinct) or 2-relation (join)
// query.
package planner

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/queryplan"
)

// Relation describes an input's logical properties. The type lives in
// internal/queryplan (plan-level composition needs it below the
// planner); this alias keeps the planner API self-contained.
type Relation = queryplan.Relation

// Algorithm identifies a physical operator implementation.
type Algorithm = queryplan.Algorithm

// The planner's physical algorithm inventory.
const (
	NestedLoopJoin      = queryplan.NestedLoopJoin
	MergeJoin           = queryplan.MergeJoin
	SortMergeJoin       = queryplan.SortMergeJoin
	HashJoin            = queryplan.HashJoin
	PartitionedHashJoin = queryplan.PartitionedHashJoin
	QuickSort           = queryplan.QuickSort
	HashAggregate       = queryplan.HashAggregate
	SortAggregate       = queryplan.SortAggregate
	HashDistinct        = queryplan.HashDistinct
	SortDistinct        = queryplan.SortDistinct
)

// Candidate is one searched physical plan before costing: the plan
// signature, its access pattern compiled once into the flat cost IR,
// and the hardware-independent CPU estimate. A candidate can be scored
// on any number of hardware profiles (ScoreOn) without re-compiling —
// the cross-profile what-if loop an optimizer or a fleet-placement
// service runs per plan.
type Candidate struct {
	// Algorithm holds the plan signature (join order, join
	// algorithms, grouping variant).
	Algorithm Algorithm
	Pattern   pattern.Pattern
	// Compiled is the pattern's flat-IR program, shared by every
	// scoring pass.
	Compiled *costir.Program
	// Fanout is the partition count for partitioned algorithms.
	Fanout int64
	// CPUNS is the estimated pure CPU time (Eq. 6.1's T_cpu),
	// hardware-profile-independent by the paper's calibration model.
	CPUNS float64
}

// PlanOn scores the candidate on one hierarchy.
func (c Candidate) PlanOn(h *hardware.Hierarchy) Plan {
	return Plan{
		Algorithm: c.Algorithm,
		Pattern:   c.Pattern,
		Compiled:  c.Compiled,
		Fanout:    c.Fanout,
		MemNS:     c.Compiled.MemoryTimeNS(h),
		CPUNS:     c.CPUNS,
	}
}

// ScoreOn costs every candidate on the hierarchy and returns the plans
// sorted cheapest first. Candidates are evaluated from their compiled
// programs; no pattern is re-compiled.
func ScoreOn(h *hardware.Hierarchy, cands []Candidate) []Plan {
	plans := make([]Plan, len(cands))
	for i, c := range cands {
		plans[i] = c.PlanOn(h)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].TotalNS() < plans[j].TotalNS() })
	return plans
}

// Plan is one costed physical alternative.
type Plan struct {
	Algorithm Algorithm
	Pattern   pattern.Pattern
	// Compiled is the pattern's flat-IR program (shared with the
	// Candidate the plan was scored from).
	Compiled *costir.Program
	// Fanout is the partition count for partitioned algorithms.
	Fanout int64
	// MemNS is the predicted memory access time (Eq. 3.1).
	MemNS float64
	// CPUNS is the estimated pure CPU time (Eq. 6.1's T_cpu).
	CPUNS float64
}

// TotalNS returns the predicted total time (Eq. 6.1).
func (p Plan) TotalNS() float64 { return p.MemNS + p.CPUNS }

// String renders "algorithm: T=... (mem ..., cpu ...)".
func (p Plan) String() string {
	return fmt.Sprintf("%-22s T=%8.2fms (mem %8.2fms, cpu %8.2fms)",
		p.Algorithm, p.TotalNS()/1e6, p.MemNS/1e6, p.CPUNS/1e6)
}

// Planner searches candidate plans (compiled once into the cost IR)
// and costs them, by default on its own hardware profile; ScoreOn
// re-scores the same candidates on any other profile.
type Planner struct {
	hier *hardware.Hierarchy
}

// CPUCosts are the per-tuple T_cpu constants per algorithm step.
type CPUCosts = queryplan.CPUCosts

// DefaultCPU returns constants in line with the experiments package.
// Every plan the planner prices uses them.
func DefaultCPU() CPUCosts { return queryplan.DefaultCPU() }

// New creates a planner for the hierarchy; the hierarchy must
// validate (the same requirement cost.New enforces).
func New(h *hardware.Hierarchy) (*Planner, error) {
	if _, err := cost.New(h); err != nil {
		return nil, err
	}
	return &Planner{hier: h}, nil
}

// minCapacity returns the smallest cache capacity (quick-sort pruning).
func (pl *Planner) minCapacity() int64 {
	min := pl.hier.Levels[0].Capacity
	for _, l := range pl.hier.Levels {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}
