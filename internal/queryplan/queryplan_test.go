package queryplan

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pattern"
)

func chainQuery(n int) Query {
	q := Query{}
	sizes := []int64{1_000, 2_000, 4_000, 8_000}
	names := []string{"A", "B", "C", "D"}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, Relation{Name: names[i], Tuples: sizes[i], Width: 16})
		if i > 0 {
			q.Joins = append(q.Joins, JoinEdge{Left: i - 1, Right: i, Selectivity: 1 / float64(sizes[i])})
		}
	}
	return q
}

func TestValidate(t *testing.T) {
	bad := []struct {
		name string
		q    Query
	}{
		{"empty", Query{}},
		{"no name", Query{Relations: []Relation{{Tuples: 10, Width: 16}}}},
		{"zero tuples", Query{Relations: []Relation{{Name: "U", Width: 16}}}},
		{"narrow width", Query{Relations: []Relation{{Name: "U", Tuples: 10, Width: engine.KeyWidth - 1}}}},
		{"size overflows int64", Query{Relations: []Relation{{Name: "U", Tuples: 1 << 60, Width: 64}}}},
		{"filter count", Query{Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}}, Filters: []float64{0.5, 0.5}}},
		{"filter range", Query{Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}}, Filters: []float64{1.5}}},
		{"projection wide", Query{Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}}, Projections: []int64{17}}},
		{"edge out of range", Query{
			Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}, {Name: "V", Tuples: 10, Width: 16}},
			Joins:     []JoinEdge{{Left: 0, Right: 2, Selectivity: 0.1}},
		}},
		{"self edge", Query{
			Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}, {Name: "V", Tuples: 10, Width: 16}},
			Joins:     []JoinEdge{{Left: 0, Right: 0, Selectivity: 0.1}, {Left: 0, Right: 1, Selectivity: 0.1}},
		}},
		{"zero selectivity", Query{
			Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}, {Name: "V", Tuples: 10, Width: 16}},
			Joins:     []JoinEdge{{Left: 0, Right: 1, Selectivity: 0}},
		}},
		{"disconnected", Query{
			Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}, {Name: "V", Tuples: 10, Width: 16}},
		}},
		{"groupby and distinct", Query{
			Relations: []Relation{{Name: "U", Tuples: 10, Width: 16}},
			GroupBy:   2, Distinct: 2,
		}},
	}
	for _, tc := range bad {
		if err := tc.q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid query", tc.name)
		}
	}
	good := chainQuery(3)
	good.Filters = []float64{0.5, 0, 1}
	good.GroupBy = 7
	good.SortBy = true
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

// TestValidateGraphShapes covers the join-graph shapes the DP search
// opened up — cycles, disconnected islands, duplicate edges, the raised
// relation cap — with exact error-message assertions.
func TestValidateGraphShapes(t *testing.T) {
	rel := func(name string) Relation { return Relation{Name: name, Tuples: 10, Width: 16} }

	t.Run("cycle is valid", func(t *testing.T) {
		q := Query{
			Relations: []Relation{rel("A"), rel("B"), rel("C")},
			Joins: []JoinEdge{
				{Left: 0, Right: 1, Selectivity: 0.1},
				{Left: 1, Right: 2, Selectivity: 0.1},
				{Left: 2, Right: 0, Selectivity: 0.1},
			},
		}
		if err := q.Validate(); err != nil {
			t.Errorf("cyclic join graph rejected: %v", err)
		}
	})

	t.Run("disconnected islands", func(t *testing.T) {
		q := Query{
			Relations: []Relation{rel("A1"), rel("A2"), rel("B1"), rel("B2")},
			Joins: []JoinEdge{
				{Left: 0, Right: 1, Selectivity: 0.1},
				{Left: 2, Right: 3, Selectivity: 0.1},
			},
		}
		err := q.Validate()
		want := "queryplan: join graph does not connect all 4 relations (cross products are not enumerated)"
		if err == nil || err.Error() != want {
			t.Errorf("two-island graph: err = %v, want %q", err, want)
		}
	})

	t.Run("duplicate edge", func(t *testing.T) {
		q := Query{
			Relations: []Relation{rel("A"), rel("B")},
			Joins: []JoinEdge{
				{Left: 0, Right: 1, Selectivity: 0.1},
				{Left: 0, Right: 1, Selectivity: 0.2},
			},
		}
		err := q.Validate()
		want := "queryplan: duplicate join edge 0–1"
		if err == nil || err.Error() != want {
			t.Errorf("duplicate edge: err = %v, want %q", err, want)
		}
	})

	t.Run("duplicate edge reversed", func(t *testing.T) {
		// The same unordered pair spelled both ways is still a duplicate.
		q := Query{
			Relations: []Relation{rel("A"), rel("B"), rel("C")},
			Joins: []JoinEdge{
				{Left: 1, Right: 2, Selectivity: 0.1},
				{Left: 0, Right: 1, Selectivity: 0.1},
				{Left: 2, Right: 1, Selectivity: 0.3},
			},
		}
		err := q.Validate()
		want := "queryplan: duplicate join edge 1–2"
		if err == nil || err.Error() != want {
			t.Errorf("reversed duplicate edge: err = %v, want %q", err, want)
		}
	})

	t.Run("relation cap", func(t *testing.T) {
		q := Query{}
		for i := 0; i <= MaxRelations; i++ {
			q.Relations = append(q.Relations, rel(string(rune('A'+i))))
			if i > 0 {
				q.Joins = append(q.Joins, JoinEdge{Left: i - 1, Right: i, Selectivity: 0.1})
			}
		}
		err := q.Validate()
		want := "queryplan: 15 relations exceeds the maximum of 14"
		if err == nil || err.Error() != want {
			t.Errorf("over the cap: err = %v, want %q", err, want)
		}
	})

	t.Run("at the cap", func(t *testing.T) {
		q := Query{}
		for i := 0; i < MaxRelations; i++ {
			q.Relations = append(q.Relations, rel(string(rune('A'+i))))
			if i > 0 {
				q.Joins = append(q.Joins, JoinEdge{Left: i - 1, Right: i, Selectivity: 0.1})
			}
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%d relations (exactly the cap) rejected: %v", MaxRelations, err)
		}
	})
}

func TestEnumerateSingleRelation(t *testing.T) {
	q := Query{Relations: []Relation{{Name: "U", Tuples: 1000, Width: 16}}}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Signature() != "U" {
		t.Fatalf("bare scan: got %d plans, first %q", len(plans), plans[0].Signature())
	}
	pat, cpu, err := plans[0].Lower(DefaultCPU(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pat.(pattern.STrav); !ok {
		t.Errorf("bare scan lowered to %T, want STrav", pat)
	}
	if cpu != 0 {
		t.Errorf("bare scan CPU = %g, want 0", cpu)
	}
}

func TestEnumerateFilteredScanMaterializes(t *testing.T) {
	q := Query{
		Relations: []Relation{{Name: "U", Tuples: 1000, Width: 16}},
		Filters:   []float64{0.25},
	}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	if got := p.Signature(); got != "σ(U)" {
		t.Fatalf("signature = %q", got)
	}
	if p.Out.Tuples != 250 {
		t.Errorf("filtered cardinality = %d, want 250", p.Out.Tuples)
	}
	pat, cpu, err := p.Lower(DefaultCPU(), 0)
	if err != nil {
		t.Fatal(err)
	}
	conc, ok := pat.(pattern.Conc)
	if !ok || len(conc) != 2 {
		t.Fatalf("filtered scan lowered to %v, want a 2-way Conc", pat)
	}
	if cpu <= 0 {
		t.Errorf("filtered scan CPU = %g, want > 0", cpu)
	}
}

func TestEnumerateJoinOrders(t *testing.T) {
	// A 3-relation chain has 4 connected left-deep orders; with merge
	// alternatives, hash join, eligible partition fan-outs and small
	// relations (nested loops eligible) each join picks from several
	// algorithms.
	plans, err := Enumerate(chainQuery(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	orders := map[string]bool{}
	for _, p := range plans {
		sig := p.Signature()
		// Normalize the algorithm codes away to count join orders.
		for _, c := range []string{"nlj", "mj", "smj", "hj", "phj16", "phj64", "phj256"} {
			sig = strings.ReplaceAll(sig, " "+c+" ", "⋈")
		}
		orders[sig] = true
	}
	want := map[string]bool{
		"((A⋈B)⋈C)": true,
		"((B⋈A)⋈C)": true,
		"((B⋈C)⋈A)": true,
		"((C⋈B)⋈A)": true,
	}
	for o := range want {
		if !orders[o] {
			t.Errorf("missing join order %s", o)
		}
	}
	for o := range orders {
		if !want[o] {
			t.Errorf("unexpected join order %s (cross product?)", o)
		}
	}
}

func TestEnumerateStarAvoidsCrossProducts(t *testing.T) {
	q := Query{
		Relations: []Relation{
			{Name: "F", Tuples: 10_000, Width: 16},
			{Name: "D1", Tuples: 100, Width: 16},
			{Name: "D2", Tuples: 100, Width: 16},
		},
		Joins: []JoinEdge{
			{Left: 0, Right: 1, Selectivity: 0.01},
			{Left: 0, Right: 2, Selectivity: 0.01},
		},
	}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		sig := p.Signature()
		if strings.Contains(sig, "(D1 ") && strings.Contains(sig[:strings.Index(sig, "F")], "D2") {
			t.Errorf("cross product enumerated: %s", sig)
		}
	}
	// D1 and D2 only ever join through F: every plan starts with a
	// pair involving F.
	for _, p := range plans {
		inner := p
		for inner.Kind == OpJoin {
			inner = inner.Children[0]
		}
		first := inner.Rel.Name
		sig := p.Signature()
		if first != "F" {
			// The other leaf of the innermost join must be F.
			if !strings.Contains(sig, "(D1 ") && !strings.Contains(sig, "(D2 ") {
				continue
			}
		}
	}
}

func TestMergeJoinOnlyForSortedInputs(t *testing.T) {
	q := Query{
		Relations: []Relation{
			{Name: "U", Tuples: 10_000, Width: 16, Sorted: true},
			{Name: "V", Tuples: 10_000, Width: 16, Sorted: true},
		},
		Joins: []JoinEdge{{Left: 0, Right: 1, Selectivity: 1e-4}},
	}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sawMJ, sawSMJ bool
	for _, p := range plans {
		sig := p.Signature()
		sawMJ = sawMJ || strings.Contains(sig, " mj ")
		sawSMJ = sawSMJ || strings.Contains(sig, " smj ")
	}
	if !sawMJ {
		t.Error("sorted inputs: no merge-join candidate")
	}
	if sawSMJ {
		t.Error("sorted inputs: redundant sort-merge-join candidate")
	}

	q.Relations[0].Sorted = false
	plans, err = Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawMJ, sawSMJ = false, false
	for _, p := range plans {
		sig := p.Signature()
		sawMJ = sawMJ || strings.Contains(sig, " mj ")
		sawSMJ = sawSMJ || strings.Contains(sig, " smj ")
	}
	if sawMJ {
		t.Error("unsorted input: merge-join without a sort enumerated")
	}
	if !sawSMJ {
		t.Error("unsorted input: no sort-merge-join candidate")
	}
}

func TestAggregateAndSortVariants(t *testing.T) {
	q := Query{
		Relations: []Relation{{Name: "U", Tuples: 50_000, Width: 16}},
		Filters:   []float64{0.5},
		GroupBy:   100,
		SortBy:    true,
	}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]string, len(plans))
	for i, p := range plans {
		sigs[i] = p.Signature()
	}
	joined := strings.Join(sigs, "\n")
	// The hash aggregate's output is unsorted, so the order-by wraps it
	// in a sort; the sort aggregate's output is already ordered.
	if !strings.Contains(joined, "sort(hashagg(σ(U)))") {
		t.Errorf("missing sort(hashagg(σ(U))) in:\n%s", joined)
	}
	if !strings.Contains(joined, "sortagg(σ(U))") || strings.Contains(joined, "sort(sortagg") {
		t.Errorf("sortagg variant should skip the final sort in:\n%s", joined)
	}
}

// TestLowerMatchesOperatorBuilders locks the lowering of a hash-join
// plan against the hand-composed operator patterns: the plan pattern
// must be the ⊕ sequence [filter] ⊕ hash-build ⊕ hash-probe.
func TestLowerMatchesOperatorBuilders(t *testing.T) {
	q := Query{
		Relations: []Relation{
			{Name: "U", Tuples: 10_000, Width: 16},
			{Name: "V", Tuples: 40_000, Width: 16},
		},
		Joins: []JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 40_000}},
	}
	plans, err := Enumerate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hj *Plan
	for _, p := range plans {
		if p.Signature() == "(U hj V)" {
			hj = p
			break
		}
	}
	if hj == nil {
		t.Fatal("no (U hj V) plan")
	}
	pat, _, err := hj.Lower(DefaultCPU(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := pat.(pattern.Seq)
	if !ok || len(seq) != 2 {
		t.Fatalf("hash join lowered to %v, want a 2-step Seq (build ⊕ probe)", pat)
	}
	// Build on the smaller input (U), probe with V.
	if got := seq[0].String(); !strings.Contains(got, "s_trav(U)") || !strings.Contains(got, "r_trav(") {
		t.Errorf("build step = %s", got)
	}
	if got := seq[1].String(); !strings.Contains(got, "s_trav(V)") || !strings.Contains(got, "r_acc(") {
		t.Errorf("probe step = %s", got)
	}
}

func TestEnumerateMaxPlansCap(t *testing.T) {
	if _, err := Enumerate(chainQuery(4), Options{MaxPlans: 3}); err == nil {
		t.Fatal("MaxPlans cap not enforced")
	}
}

func TestCatalogValidatesAndIsStable(t *testing.T) {
	cat := Catalog()
	if len(cat) < 16 {
		t.Fatalf("catalog has %d scenarios, want ≥ 16", len(cat))
	}
	seen := map[string]bool{}
	for _, sc := range cat {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %s", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Query.Validate(); err != nil {
			t.Errorf("scenario %s: %v", sc.Name, err)
		}
		if sc.Description == "" {
			t.Errorf("scenario %s has no description", sc.Name)
		}
	}
	if _, ok := ScenarioByName(cat[0].Name); !ok {
		t.Error("ScenarioByName misses a catalog entry")
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Error("ScenarioByName invented a scenario")
	}
}
