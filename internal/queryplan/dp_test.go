package queryplan

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/hardware"
)

func dpOptions(so SearchOptions) Options {
	return Options{PruneBytes: 8 << 10, Search: so}
}

func TestSearchDPRequiresHierarchy(t *testing.T) {
	_, err := Search(chainQuery(2), dpOptions(SearchOptions{}), nil)
	if err == nil || !strings.Contains(err.Error(), "hardware hierarchy") {
		t.Fatalf("DP search without a hierarchy: err = %v", err)
	}
}

func TestSearchUnknownStrategy(t *testing.T) {
	_, err := Search(chainQuery(2), dpOptions(SearchOptions{Strategy: "genetic"}), hardware.SmallTest())
	if err == nil || !strings.Contains(err.Error(), `unknown search strategy "genetic"`) {
		t.Fatalf("unknown strategy: err = %v", err)
	}
}

func TestSearchExhaustiveIgnoresHierarchy(t *testing.T) {
	plans, err := Search(chainQuery(3), dpOptions(SearchOptions{Strategy: SearchExhaustive}), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Enumerate(chainQuery(3), dpOptions(SearchOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(want) {
		t.Fatalf("Search(exhaustive) returned %d plans, Enumerate %d", len(plans), len(want))
	}
}

func signatures(plans []*Plan) []string {
	sigs := make([]string, len(plans))
	for i, p := range plans {
		sigs[i] = p.Signature()
	}
	sort.Strings(sigs)
	return sigs
}

// TestSearchDPLeftDeepCoversExhaustiveSpace locks the DP search's
// completeness: with pruning disabled and bushy trees off, phase 1 must
// generate exactly the signature set of the exhaustive left-deep
// enumerator.
func TestSearchDPLeftDeepCoversExhaustiveSpace(t *testing.T) {
	h := hardware.SmallTest()
	for _, n := range []int{2, 3, 4} {
		q := chainQuery(n)
		ex, err := Enumerate(q, dpOptions(SearchOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		dp, err := Search(q, dpOptions(SearchOptions{TopK: -1, LeftDeepOnly: true}), h)
		if err != nil {
			t.Fatal(err)
		}
		exSigs, dpSigs := signatures(ex), signatures(dp)
		if len(exSigs) != len(dpSigs) {
			t.Fatalf("chain(%d): exhaustive %d plans, DP left-deep k=∞ %d", n, len(exSigs), len(dpSigs))
		}
		for i := range exSigs {
			if exSigs[i] != dpSigs[i] {
				t.Fatalf("chain(%d): signature sets diverge at %d:\n  exhaustive: %s\n  dp:         %s",
					n, i, exSigs[i], dpSigs[i])
			}
		}
	}
}

func islandsQuery() Query {
	return Query{
		Relations: []Relation{
			{Name: "A1", Tuples: 5_000, Width: 16},
			{Name: "A2", Tuples: 6_000, Width: 16},
			{Name: "B1", Tuples: 4_000, Width: 16},
			{Name: "B2", Tuples: 4_500, Width: 16},
		},
		Joins: []JoinEdge{
			{Left: 0, Right: 1, Selectivity: 1.0 / 6_000},
			{Left: 2, Right: 3, Selectivity: 1.0 / 4_500},
			{Left: 1, Right: 2, Selectivity: 1.0 / 4_000},
		},
	}
}

// bushy reports whether any join of the plan has two multi-relation
// inputs.
func bushy(p *Plan) bool {
	if p.Kind == OpJoin && p.Children[0].Kind == OpJoin && p.Children[1].Kind == OpJoin {
		return true
	}
	for _, c := range p.Children {
		if bushy(c) {
			return true
		}
	}
	return false
}

func TestSearchDPBushyPlans(t *testing.T) {
	h := hardware.SmallTest()
	q := islandsQuery()
	plans, err := Search(q, dpOptions(SearchOptions{TopK: -1}), h)
	if err != nil {
		t.Fatal(err)
	}
	var sawBushy bool
	for _, p := range plans {
		sawBushy = sawBushy || bushy(p)
	}
	if !sawBushy {
		t.Error("two-island query: DP search with bushy trees enabled produced no bushy plan")
	}

	leftDeep, err := Search(q, dpOptions(SearchOptions{TopK: -1, LeftDeepOnly: true}), h)
	if err != nil {
		t.Fatal(err)
	}
	// Left-deep means every join's right input is a scan leaf — this
	// also rejects right-deep/zigzag shapes, which bushy() alone would
	// miss.
	var assertLeftDeep func(p *Plan) bool
	assertLeftDeep = func(p *Plan) bool {
		if p.Kind == OpJoin && p.Children[1].Kind != OpScan {
			return false
		}
		for _, c := range p.Children {
			if !assertLeftDeep(c) {
				return false
			}
		}
		return true
	}
	for _, p := range leftDeep {
		if !assertLeftDeep(p) {
			t.Errorf("LeftDeepOnly produced a non-left-deep plan: %s", p.Signature())
		}
	}
	if len(plans) <= len(leftDeep) {
		t.Errorf("bushy space (%d plans) not larger than left-deep space (%d)", len(plans), len(leftDeep))
	}
}

func TestSearchDPTopKPrunes(t *testing.T) {
	h := hardware.SmallTest()
	q := chainQuery(4)
	narrow, err := Search(q, dpOptions(SearchOptions{TopK: 1}), h)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Search(q, dpOptions(SearchOptions{TopK: -1}), h)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) == 0 || len(narrow) >= len(wide) {
		t.Errorf("TopK=1 kept %d plans, TopK=∞ %d — pruning had no effect", len(narrow), len(wide))
	}
	// Every pruned-search survivor must exist in the unpruned space.
	all := map[string]bool{}
	for _, p := range wide {
		all[p.Signature()] = true
	}
	for _, p := range narrow {
		if !all[p.Signature()] {
			t.Errorf("pruned search invented plan %s", p.Signature())
		}
	}
}

// TestSearchDPLargeJoinGraphs locks the tentpole capability: the DP
// search handles relation counts the exhaustive enumerator cannot
// reach (it trips its MaxPlans cap), including cyclic graphs, and
// respects the raised MaxRelations bound.
func TestSearchDPLargeJoinGraphs(t *testing.T) {
	h := hardware.SmallTest()
	chain := func(n int) Query {
		q := Query{}
		for i := 0; i < n; i++ {
			q.Relations = append(q.Relations, Relation{Name: string(rune('A' + i)), Tuples: int64(1000 * (i + 1)), Width: 16})
			if i > 0 {
				q.Joins = append(q.Joins, JoinEdge{Left: i - 1, Right: i, Selectivity: 1 / float64(1000*(i+1))})
			}
		}
		return q
	}
	for _, n := range []int{8, 10} {
		plans, err := Search(chain(n), dpOptions(SearchOptions{}), h)
		if err != nil {
			t.Fatalf("DP on %d-chain: %v", n, err)
		}
		if len(plans) == 0 {
			t.Fatalf("DP on %d-chain: no plans", n)
		}
	}
	if _, err := Search(chain(8), dpOptions(SearchOptions{Strategy: SearchExhaustive}), h); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Errorf("exhaustive on the 8-chain should trip the MaxPlans cap, got err = %v", err)
	}

	sc, ok := ScenarioByName("join5-cycle")
	if !ok {
		t.Fatal("join5-cycle missing from the catalog")
	}
	plans, err := Search(sc.Query, dpOptions(SearchOptions{}), h)
	if err != nil || len(plans) == 0 {
		t.Fatalf("DP on the cyclic scenario: %d plans, err %v", len(plans), err)
	}
}

// TestMemoInsertMatchesStableCut pins the bucket invariant of the memo:
// after a stream of inserts and finalize, each order-class bucket holds
// exactly the first k candidates of a stable sort of its stream by
// bound (ties in insertion order), and ranked merges both buckets by
// (bound, seq). Bounds are drawn from a handful of values so most
// inserts tie, which is where an off-by-one insertion position shows.
func TestMemoInsertMatchesStableCut(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for _, topK := range []int{1, 2, 5, -1} {
		k := SearchOptions{TopK: topK}.topK()
		for trial := 0; trial < 200; trial++ {
			var m memoEntry
			var stream [2][]cand
			for i, n := 0, rng.Intn(40); i < n; i++ {
				c := cand{bound: float64(rng.Intn(4)), outSorted: rng.Intn(2) == 0, rel: int32(i)}
				m.insert(c, k)
				c.seq = int32(i)
				cls := 0
				if c.outSorted {
					cls = 1
				}
				stream[cls] = append(stream[cls], c)
			}
			m.finalize(k)

			var want []cand
			for cls, st := range stream {
				sort.SliceStable(st, func(i, j int) bool { return st[i].bound < st[j].bound })
				if len(st) > k {
					st = st[:k]
				}
				if !slices.Equal(m.buckets[cls], st) {
					t.Fatalf("topK=%d trial %d class %d: bucket\n  got  %v\n  want %v",
						topK, trial, cls, m.buckets[cls], st)
				}
				want = append(want, st...)
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].bound != want[j].bound {
					return want[i].bound < want[j].bound
				}
				return want[i].seq < want[j].seq
			})
			if len(m.ranked) != len(want) {
				t.Fatalf("topK=%d trial %d: %d ranked, want %d", topK, trial, len(m.ranked), len(want))
			}
			for i, slot := range m.ranked {
				if got := *m.at(slot); got != want[i] {
					t.Fatalf("topK=%d trial %d: ranked[%d] = %+v, want %+v", topK, trial, i, got, want[i])
				}
			}
		}
	}
}
