package planner

import (
	"strings"
	"testing"

	"repro/internal/hardware"
	"repro/internal/queryplan"
)

func testQuery() queryplan.Query {
	return queryplan.Query{
		Relations: []queryplan.Relation{
			{Name: "U", Tuples: 20_000, Width: 16},
			{Name: "V", Tuples: 5_000, Width: 16},
		},
		Joins:   []queryplan.JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 5_000}},
		GroupBy: 50,
	}
}

func TestQueryCandidatesDedupe(t *testing.T) {
	pl, err := New(hardware.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	// The exhaustive oracle enumerates the complete plan space, so the
	// expected duplicate pairs are guaranteed to be present.
	cands, err := pl.QueryCandidatesSearch(testQuery(), SearchOptions{Strategy: SearchExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// (U hj V) and (V hj U) compile to the same canonical program (the
	// build side is picked by size either way); only one survives.
	var hj int
	seen := map[string]bool{}
	for _, c := range cands {
		sig := string(c.Algorithm)
		if seen[sig] {
			t.Errorf("duplicate signature %s", sig)
		}
		seen[sig] = true
		if strings.Contains(sig, " hj ") && !strings.Contains(sig, "phj") {
			hj++
		}
	}
	if hj != 2 { // one per grouping variant
		t.Errorf("got %d plain hash-join plans, want 2 (build-side duplicates collapsed)", hj)
	}
	canon := map[string]bool{}
	for _, c := range cands {
		key := c.Compiled.Canonical()
		if canon[key] {
			t.Errorf("cost-equivalent duplicate survived: %s", c.Algorithm)
		}
		canon[key] = true
	}
}

func TestQueryPlansSortedAndRescorable(t *testing.T) {
	pl, err := New(hardware.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery()
	plans, err := pl.QueryPlansSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].TotalNS() < plans[i-1].TotalNS() {
			t.Fatalf("plans not sorted at %d: %g < %g", i, plans[i].TotalNS(), plans[i-1].TotalNS())
		}
	}
	best, err := pl.BestQueryPlanSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if best.Algorithm != plans[0].Algorithm {
		t.Errorf("BestQueryPlanSearch %s != QueryPlansSearch[0] %s", best.Algorithm, plans[0].Algorithm)
	}

	// The same candidates re-score on another profile without
	// recompiling (the cross-profile what-if loop).
	cands, err := pl.QueryCandidatesSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other := ScoreOn(hardware.Origin2000(), cands)
	if len(other) != len(cands) {
		t.Fatalf("ScoreOn dropped candidates: %d != %d", len(other), len(cands))
	}
	for _, p := range other {
		if p.MemNS <= 0 {
			t.Errorf("plan %s scored non-positive memory time %g", p.Algorithm, p.MemNS)
		}
	}
}

func TestQueryCandidatesInvalidQuery(t *testing.T) {
	pl, err := New(hardware.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.QueryCandidatesSearch(queryplan.Query{}, SearchOptions{}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := pl.QueryCandidatesSearch(testQuery(), SearchOptions{Strategy: "anneal"}); err == nil {
		t.Fatal("invalid search strategy accepted")
	}
}

// TestQuerySearchStrategiesAgreeOnWinner checks the two engines through
// the planner surface on a small query: the DP default prunes, but its
// winner must be drawn from (and here equal to) the exhaustive space's
// winner, and both must flow through the same exact phase-2 scoring.
func TestQuerySearchStrategiesAgreeOnWinner(t *testing.T) {
	pl, err := New(hardware.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery()
	ex, err := pl.BestQueryPlanSearch(q, SearchOptions{Strategy: SearchExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := pl.BestQueryPlanSearch(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Algorithm != ex.Algorithm {
		t.Errorf("DP winner %s != exhaustive winner %s", dp.Algorithm, ex.Algorithm)
	}
	if dp.TotalNS() != ex.TotalNS() {
		t.Errorf("winner cost diverged: dp %g, exhaustive %g", dp.TotalNS(), ex.TotalNS())
	}
}
