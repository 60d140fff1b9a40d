package planner

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/queryplan"
)

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	pl, err := New(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// join2 is the 2-relation equi-join U ⋈ V on a 1:1 key match: the
// output estimate is |V| tuples of the concatenated widths minus the
// shared key.
func join2(u, v Relation) queryplan.Query {
	return queryplan.Query{
		Relations: []Relation{u, v},
		Joins:     []queryplan.JoinEdge{{Left: 0, Right: 1, Selectivity: 1 / float64(u.Tuples)}},
	}
}

// allPlans searches q with pruning disabled, so every physical
// alternative reaches the ranking.
func allPlans(t *testing.T, pl *Planner, q queryplan.Query) []CostedTree {
	t.Helper()
	costed, err := pl.QueryCostedTreesSearch(q, SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(costed) == 0 {
		t.Fatal("no plans")
	}
	return costed
}

// rootAlgorithms is the set of algorithms the plans' root operators use.
func rootAlgorithms(costed []CostedTree) map[Algorithm]bool {
	seen := map[Algorithm]bool{}
	for _, ct := range costed {
		seen[ct.Tree.Algorithm] = true
	}
	return seen
}

// bestAlgorithm returns the root algorithm of q's cheapest plan under
// the default search.
func bestAlgorithm(t *testing.T, pl *Planner, q queryplan.Query) Algorithm {
	t.Helper()
	costed, err := pl.QueryCostedTreesSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return costed[0].Tree.Algorithm
}

func TestJoinAlgorithmsEnumerated(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 100000, Width: 16}
	v := Relation{Name: "V", Tuples: 100000, Width: 16}
	costed := allPlans(t, pl, join2(u, v))
	for _, ct := range costed {
		if ct.Plan.TotalNS() <= 0 {
			t.Errorf("%s has non-positive cost", ct.Plan.Algorithm)
		}
	}
	seen := rootAlgorithms(costed)
	for _, alg := range []Algorithm{SortMergeJoin, HashJoin, PartitionedHashJoin} {
		if !seen[alg] {
			t.Errorf("missing candidate %s", alg)
		}
	}
	// Quadratic CPU: no nested loop once both inputs exceed
	// queryplan.DefaultNLJMaxInner tuples.
	if seen[NestedLoopJoin] {
		t.Error("nested loop offered for a 100k x 100k join")
	}
	// Plans sorted cheapest-first.
	for i := 1; i < len(costed); i++ {
		if costed[i].Plan.TotalNS() < costed[i-1].Plan.TotalNS() {
			t.Error("plans not sorted by cost")
		}
	}

	// A small inner relation brings the nested loop back.
	small := Relation{Name: "S", Tuples: queryplan.DefaultNLJMaxInner, Width: 16}
	if !rootAlgorithms(allPlans(t, pl, join2(u, small)))[NestedLoopJoin] {
		t.Error("nested loop not offered for a 1024-tuple inner")
	}
}

func TestMergeJoinOfferedForSortedInputs(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 50000, Width: 8, Sorted: true}
	v := Relation{Name: "V", Tuples: 50000, Width: 8, Sorted: true}
	seen := rootAlgorithms(allPlans(t, pl, join2(u, v)))
	if !seen[MergeJoin] {
		t.Error("merge join not offered for sorted inputs")
	}
	if seen[SortMergeJoin] {
		t.Error("redundant sort-merge join offered for sorted inputs")
	}
}

func TestJoinPrefersMergeWhenSorted(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 20, Width: 8, Sorted: true}
	v := Relation{Name: "V", Tuples: 1 << 20, Width: 8, Sorted: true}
	if best := bestAlgorithm(t, pl, join2(u, v)); best != MergeJoin {
		t.Errorf("best = %s, want merge join for pre-sorted 8MB inputs", best)
	}
}

func TestJoinAvoidsNestedLoopForLargeInputs(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 18, Width: 16}
	v := Relation{Name: "V", Tuples: 1 << 18, Width: 16}
	if best := bestAlgorithm(t, pl, join2(u, v)); best == NestedLoopJoin {
		t.Error("nested loop chosen for 256k x 256k join")
	}
}

func TestJoinCrossover(t *testing.T) {
	// The headline claim (Fig. 7e): plain hash join wins while its hash
	// table fits L2; partitioned hash join wins once it does not.
	pl := newPlanner(t)
	small := Relation{Name: "U", Tuples: 1 << 14, Width: 16} // H = 512kB ≤ 4MB
	if best := bestAlgorithm(t, pl, join2(small, Relation{Name: "V", Tuples: 1 << 14, Width: 16})); best != HashJoin {
		t.Errorf("small join best = %s, want plain hash join", best)
	}
	big := Relation{Name: "U", Tuples: 1 << 21, Width: 16} // H = 64MB >> 4MB
	if best := bestAlgorithm(t, pl, join2(big, Relation{Name: "V", Tuples: 1 << 21, Width: 16})); best != PartitionedHashJoin {
		t.Errorf("big join best = %s, want partitioned hash join", best)
	}
}

func TestAggregateChoosesHashForFewGroups(t *testing.T) {
	pl := newPlanner(t)
	q := queryplan.Query{Relations: []Relation{{Name: "U", Tuples: 1 << 18, Width: 8}}, GroupBy: 1024}
	costed := allPlans(t, pl, q)
	if len(costed) != 2 {
		t.Fatalf("got %d aggregate plans", len(costed))
	}
	// Few groups: the aggregate table is cache-resident, hashing must
	// beat sort-everything.
	if got := costed[0].Tree.Algorithm; got != HashAggregate {
		t.Errorf("best aggregate = %s, want hash (1k groups)", got)
	}
	if got := costed[1].Tree.Algorithm; got != SortAggregate {
		t.Errorf("runner-up aggregate = %s, want sort", got)
	}
}

func TestDistinctVariants(t *testing.T) {
	pl := newPlanner(t)
	q := queryplan.Query{Relations: []Relation{{Name: "U", Tuples: 1 << 16, Width: 8}}, Distinct: 1 << 10}
	costed := allPlans(t, pl, q)
	if len(costed) != 2 {
		t.Fatalf("got %d distinct plans", len(costed))
	}
	seen := rootAlgorithms(costed)
	if !seen[HashDistinct] || !seen[SortDistinct] {
		t.Errorf("distinct plans %v, want the hash and sort variants", seen)
	}
	for _, ct := range costed {
		if ct.Plan.TotalNS() <= 0 {
			t.Errorf("%s non-positive cost", ct.Plan.Algorithm)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Algorithm: HashJoin, MemNS: 2e6, CPUNS: 1e6}
	if p.String() == "" || p.TotalNS() != 3e6 {
		t.Error("Plan rendering broken")
	}
}

// TestPlannerRankingMatchesSimulation executes the candidate plans of a
// join on the simulated engine and verifies the predicted winner indeed
// measures fastest — the end-to-end claim of the paper.
func TestPlannerRankingMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated execution of multiple plans")
	}
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 17, Width: 8} // 1MB inputs, H=4MB boundary
	v := Relation{Name: "V", Tuples: 1 << 17, Width: 8}
	costed := allPlans(t, pl, join2(u, v))
	type outcome struct {
		sig    string
		predNS float64
		measNS float64
	}
	var outcomes []outcome
	type variant struct {
		alg    Algorithm
		fanout int64
	}
	executed := map[variant]bool{}
	for _, ct := range costed {
		// Mirror join orders of equal-sized inputs price identically;
		// execute each physical variant once.
		k := variant{ct.Tree.Algorithm, ct.Tree.Fanout}
		if executed[k] {
			continue
		}
		executed[k] = true
		ex := NewExecutor(pl, 256<<20)
		ut, vt := ex.MaterializeJoinInputs(u, v, 11)
		matches, measNS, err := ex.RunJoin(ct.Tree, map[string]*engine.Table{"U": ut, "V": vt})
		if err != nil {
			t.Fatal(err)
		}
		if matches != u.Tuples {
			t.Fatalf("%s: %d matches, want %d", ct.Plan.Algorithm, matches, u.Tuples)
		}
		outcomes = append(outcomes, outcome{string(ct.Plan.Algorithm), ct.Plan.MemNS, measNS})
	}
	if len(outcomes) < 3 {
		t.Fatalf("only %d plans executed", len(outcomes))
	}
	// The predicted-cheapest executed plan must also measure cheapest
	// (within 10% slack for near-ties).
	bestPred, bestMeas := outcomes[0], outcomes[0]
	for _, o := range outcomes[1:] {
		if o.predNS < bestPred.predNS {
			bestPred = o
		}
		if o.measNS < bestMeas.measNS {
			bestMeas = o
		}
	}
	if bestPred.sig != bestMeas.sig && bestPred.measNS > bestMeas.measNS*1.10 {
		t.Errorf("predicted winner %s (measured %.1fms) but %s measured %.1fms",
			bestPred.sig, bestPred.measNS/1e6, bestMeas.sig, bestMeas.measNS/1e6)
	}
	for _, o := range outcomes {
		t.Logf("%-22s pred %8.1fms meas %8.1fms", o.sig, o.predNS/1e6, o.measNS/1e6)
	}
}

// TestCandidatesCompiledOnce certifies the compile-once contract: the
// same candidate set re-scored across hardware profiles reuses the
// compiled programs by identity, and scoring on the planner's own
// profile reproduces QueryPlansSearch exactly.
func TestCandidatesCompiledOnce(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 200000, Width: 16}
	v := Relation{Name: "V", Tuples: 100000, Width: 16}
	so := SearchOptions{TopK: -1}
	cands, err := pl.QueryCandidatesSearch(join2(u, v), so)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, c := range cands {
		if c.Compiled == nil {
			t.Fatalf("%s: nil compiled program", c.Algorithm)
		}
	}

	onOrigin := ScoreOn(hardware.Origin2000(), cands)
	onX86 := ScoreOn(hardware.ModernX86(), cands)
	for _, plans := range [][]Plan{onOrigin, onX86} {
		for _, p := range plans {
			// Programs are shared by pointer with the candidates: no
			// re-compilation happened.
			found := false
			for _, c := range cands {
				if c.Compiled == p.Compiled {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: plan's program not shared with its candidate", p.Algorithm)
			}
		}
	}

	direct, err := pl.QueryPlansSearch(join2(u, v), so)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(onOrigin) {
		t.Fatalf("QueryPlansSearch %d plans, ScoreOn %d", len(direct), len(onOrigin))
	}
	for i := range direct {
		if direct[i].Algorithm != onOrigin[i].Algorithm || direct[i].MemNS != onOrigin[i].MemNS {
			t.Errorf("plan %d: QueryPlansSearch %v/%g != ScoreOn %v/%g",
				i, direct[i].Algorithm, direct[i].MemNS, onOrigin[i].Algorithm, onOrigin[i].MemNS)
		}
	}

	// Different hardware may rank differently, but each plan's memory
	// time must be profile-specific (not stale from the first scoring).
	same := true
	for i := range onOrigin {
		if onOrigin[i].MemNS != onX86[i].MemNS {
			same = false
		}
	}
	if same {
		t.Error("scores identical across Origin2000 and ModernX86 — rescoring looks stale")
	}
}

// TestSingleRelationCandidates covers the 1-relation aggregate and
// distinct queries' candidate paths: two variants each, re-scored
// cheapest first on another profile.
func TestSingleRelationCandidates(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 100000, Width: 16}
	for _, q := range []queryplan.Query{
		{Relations: []Relation{u}, GroupBy: 512},
		{Relations: []Relation{u}, Distinct: 5000},
	} {
		cands, err := pl.QueryCandidatesSearch(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 {
			t.Fatalf("got %d candidates, want 2", len(cands))
		}
		plans := ScoreOn(hardware.SmallTest(), cands)
		if len(plans) != 2 || plans[0].TotalNS() > plans[1].TotalNS() {
			t.Errorf("ScoreOn did not sort cheapest first: %v", plans)
		}
	}
}
