package planner

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/queryplan"
	"repro/internal/vmem"
	"repro/internal/workload"
)

// Executor runs chosen join plans on the simulated engine, so the
// planner's predicted ranking can be verified against measured memory
// time — closing the loop the paper's evaluation closes with hardware
// counters.
type Executor struct {
	Mem *vmem.Memory
	Sim *cachesim.Simulator
}

// NewExecutor creates an executor with the given simulated-memory budget
// on the planner's hierarchy.
func NewExecutor(pl *Planner, memBytes int64) *Executor {
	mem := vmem.New(memBytes)
	sim := cachesim.New(pl.hier)
	mem.SetObserver(sim)
	sim.Freeze()
	return &Executor{Mem: mem, Sim: sim}
}

// MaterializeJoinInputs creates and fills the two physical tables for a
// join according to their logical descriptions (1:1 permutation keys, or
// sorted keys when the relation is declared sorted).
func (e *Executor) MaterializeJoinInputs(u, v Relation, seed uint64) (*engine.Table, *engine.Table) {
	rng := workload.NewRNG(seed)
	ut := engine.NewTable(e.Mem, u.Name, u.Tuples, u.Width, 32)
	vt := engine.NewTable(e.Mem, v.Name, v.Tuples, v.Width, 32)
	if u.Sorted {
		workload.FillSorted(ut)
	} else {
		workload.FillPermutation(ut, rng)
	}
	if v.Sorted {
		workload.FillSorted(vt)
	} else {
		workload.FillPermutation(vt, rng)
	}
	return ut, vt
}

// RunJoin executes the root join of a plan tree on the materialized
// inputs — children in tree order, looked up by relation name — and
// returns (matches, measured memory time in ns). The output table is
// sized from the tree's output estimate.
func (e *Executor) RunJoin(t *queryplan.Plan, tables map[string]*engine.Table) (int64, float64, error) {
	if t.Kind != queryplan.OpJoin {
		return 0, 0, fmt.Errorf("planner: plan %s is not a join", t.Signature())
	}
	l, r := tables[t.Children[0].Rel.Name], tables[t.Children[1].Rel.Name]
	if l == nil || r == nil {
		return 0, 0, fmt.Errorf("planner: plan %s joins an unmaterialized input", t.Signature())
	}
	out := engine.NewTable(e.Mem, "W", t.Out.Tuples, t.Out.Width, 32)
	e.Sim.Reset()
	e.Sim.Thaw()
	defer e.Sim.Freeze()
	var matches int64
	switch t.Algorithm {
	case NestedLoopJoin:
		matches = engine.NestedLoopJoin(l, r, out)
	case MergeJoin:
		matches = engine.MergeJoin(l, r, out)
	case SortMergeJoin:
		engine.QuickSort(l)
		engine.QuickSort(r)
		matches = engine.MergeJoin(l, r, out)
	case HashJoin:
		// Build on the smaller input, as the lowered pattern does.
		build, probe := r, l
		if l.N() < r.N() {
			build, probe = l, r
		}
		matches = engine.HashJoin(e.Mem, probe, build, out)
	case PartitionedHashJoin:
		matches = engine.PartitionedHashJoin(e.Mem, l, r, out, t.Fanout, engine.HashPartition)
	default:
		return 0, 0, fmt.Errorf("planner: cannot execute %s", t.Algorithm)
	}
	return matches, e.Sim.MemoryTimeNS(), nil
}
