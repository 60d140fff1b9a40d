package cost_test

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// explainPatterns are the operator patterns the Explain tests itemize.
func explainPatterns() []pattern.Pattern {
	n := int64(1 << 18)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	h := engine.HashRegionFor("H", n)
	return []pattern.Pattern{
		pattern.STrav{R: u},
		pattern.RAcc{R: h, Count: n},
		engine.HashJoinPattern(u, v, h, w),
		engine.MergeJoinPattern(u, v, w),
		engine.PartitionedHashJoinPattern(u, v, w, 16),
		engine.QuickSortPattern(u, 32<<10),
		pattern.Conc{pattern.Seq{pattern.STrav{R: u}, pattern.RTrav{R: v}}, pattern.RAcc{R: h, Count: n}},
	}
}

// profileModels returns one model per built-in profile, in name order.
func profileModels() []*cost.Model {
	profiles := hardware.Profiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]*cost.Model, len(names))
	for i, name := range names {
		models[i] = cost.MustNew(profiles[name]())
	}
	return models
}

// explainOf evaluates and explains p on m.
func explainOf(t *testing.T, m *cost.Model, p pattern.Pattern) (*cost.Result, *cost.Explanation) {
	t.Helper()
	res, err := m.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	return res, ex
}

// checkRoot asserts the root row is bit-identical to Evaluate.
func checkRoot(t *testing.T, res *cost.Result, ex *cost.Explanation, p pattern.Pattern) {
	t.Helper()
	root := ex.Total()
	for li, lr := range res.PerLevel {
		got := root.PerLevel[li]
		if math.Float64bits(got.Seq) != math.Float64bits(lr.Misses.Seq) ||
			math.Float64bits(got.Rnd) != math.Float64bits(lr.Misses.Rnd) {
			t.Fatalf("level %s: Explain root %+v != Evaluate %+v\npattern: %v", lr.Level.Name, got, lr.Misses, p)
		}
	}
	if math.Float64bits(root.TimeNS) != math.Float64bits(res.MemoryTimeNS()) {
		t.Fatalf("Explain root time %v != Evaluate %v\npattern: %v", root.TimeNS, res.MemoryTimeNS(), p)
	}
}

// checkChildSums asserts every compound row is the sum of its child
// rows within 1e-12 relative.
func checkChildSums(t *testing.T, ex *cost.Explanation, p pattern.Pattern) {
	t.Helper()
	for i, n := range ex.Nodes {
		if n.Kind == "basic" {
			continue
		}
		sum := make([]cost.Misses, len(n.PerLevel))
		for j := i + 1; j < len(ex.Nodes) && ex.Nodes[j].Depth > n.Depth; j++ {
			if ex.Nodes[j].Depth == n.Depth+1 {
				for li := range sum {
					sum[li] = sum[li].Add(ex.Nodes[j].PerLevel[li])
				}
			}
		}
		for li := range sum {
			if !within(sum[li].Seq, n.PerLevel[li].Seq, 1e-12, 1e-12) || !within(sum[li].Rnd, n.PerLevel[li].Rnd, 1e-12, 1e-12) {
				t.Fatalf("row %d (%s) level %d: %+v, children sum to %+v\npattern: %v",
					i, n.Pattern, li, n.PerLevel[li], sum[li], p)
			}
		}
	}
}

// checkOracle asserts every row agrees with the tree walker's per-node
// oracle within 1e-9 relative.
func checkOracle(t *testing.T, m *cost.Model, ex *cost.Explanation, p pattern.Pattern) {
	t.Helper()
	oracle := m.ExplainTree(canonicalShape(p))
	if len(oracle) != len(ex.Nodes) {
		t.Fatalf("%d rows, tree oracle %d\npattern: %v", len(ex.Nodes), len(oracle), p)
	}
	for i, n := range ex.Nodes {
		for li, mi := range n.PerLevel {
			want := oracle[i][li]
			if !within(mi.Seq, want.Seq, 1e-9, 1e-9) || !within(mi.Rnd, want.Rnd, 1e-9, 1e-9) {
				t.Fatalf("row %d (%s) level %d: IR %+v, tree oracle %+v\npattern: %v",
					i, n.Pattern, li, mi, want, p)
			}
		}
	}
}

// canonicalShape respells p in its canonical tree shape — nested ⊕
// flattened, ⊙ operands sorted by canonical key — so the tree walker's
// spelled-order rows line up one-to-one with Explain's.
func canonicalShape(p pattern.Pattern) pattern.Pattern {
	switch q := p.(type) {
	case pattern.Seq:
		var out pattern.Seq
		for _, sub := range q {
			k := canonicalShape(sub)
			if s, ok := k.(pattern.Seq); ok {
				out = append(out, s...)
			} else {
				out = append(out, k)
			}
		}
		return out
	case pattern.Conc:
		out := make(pattern.Conc, len(q))
		keys := make([]string, len(q))
		idx := make([]int, len(q))
		for i, sub := range q {
			idx[i] = i
			keys[i], _ = costir.CanonicalKey(sub)
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		for i, j := range idx {
			out[i] = canonicalShape(q[j])
		}
		return out
	}
	return p
}

// TestExplainTotalsMatchEvaluate: on every built-in profile, the root
// row is the very floating-point sum Evaluate returns.
func TestExplainTotalsMatchEvaluate(t *testing.T) {
	for _, m := range profileModels() {
		for _, p := range explainPatterns() {
			res, ex := explainOf(t, m, p)
			checkRoot(t, res, ex, p)
		}
	}
}

func TestExplainChildSums(t *testing.T) {
	for _, m := range profileModels() {
		for _, p := range explainPatterns() {
			_, ex := explainOf(t, m, p)
			checkChildSums(t, ex, p)
		}
	}
}

func TestExplainMatchesTreeOracle(t *testing.T) {
	for _, m := range profileModels() {
		for _, p := range explainPatterns() {
			_, ex := explainOf(t, m, p)
			checkOracle(t, m, ex, p)
		}
	}
}

// TestExplainRandomTrees runs the three checks above over randomized
// trees from the FuzzCompileParity tree builder.
func TestExplainRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	models := profileModels()
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(112))
		rng.Read(data)
		p := (&treeBuilder{data: data}).pattern(0)
		for _, m := range models {
			res, ex := explainOf(t, m, p)
			checkRoot(t, res, ex, p)
			checkChildSums(t, ex, p)
			checkOracle(t, m, ex, p)
		}
	}
}

// TestExplainCanonical: spellings with one canonical form — ⊙ operands
// swapped, ⊕ regrouped — explain to identical rows.
func TestExplainCanonical(t *testing.T) {
	m := cost.MustNew(hardware.Origin2000())
	u := region.New("U", 1<<16, 16)
	v := region.New("V", 1<<16, 16)
	a, err := m.Explain(pattern.Seq{pattern.STrav{R: u}, pattern.Conc{pattern.RTrav{R: v}, pattern.STrav{R: u, U: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Explain(pattern.Seq{pattern.Seq{pattern.STrav{R: u}}, pattern.Conc{pattern.STrav{R: u}, pattern.RTrav{R: v}}})
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb bytes.Buffer
	a.Render(&ra)
	b.Render(&rb)
	if ra.String() != rb.String() {
		t.Errorf("equivalent spellings explain differently:\n%s\nvs\n%s", ra.String(), rb.String())
	}
}

func TestExplainRender(t *testing.T) {
	m := cost.MustNew(hardware.Origin2000())
	u := region.New("U", 1000, 8)
	exp, err := m.Explain(pattern.Seq{pattern.STrav{R: u}, pattern.RTrav{R: u}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp.Render(&buf)
	out := buf.String()
	for _, want := range []string{"seq of 2", "s_trav(U)", "r_trav(U)", "L1-miss", "time[ms]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainValidates(t *testing.T) {
	m := cost.MustNew(hardware.Origin2000())
	if _, err := m.Explain(pattern.Seq{}); err == nil {
		t.Error("empty Seq accepted")
	}
}
