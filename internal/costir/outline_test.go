package costir

import (
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// TestOutlineShape pins Outline's canonical tree: ⊕ flattened, ⊙
// operands sorted, preorder depths, labels, and basic ranges whose
// children partition their parent's.
func TestOutlineShape(t *testing.T) {
	u := region.New("U", 1000, 16)
	v := region.New("V", 2000, 8)
	p := pattern.Seq{
		pattern.Seq{pattern.STrav{R: u, U: 16}},
		pattern.Conc{pattern.RTrav{R: v}, pattern.RRTrav{R: u, Repeats: 2}},
	}
	prog, nodes, err := Outline(p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Canonical() != mustCompile(t, p).Canonical() {
		t.Errorf("Outline's program %q differs from Compile's", prog.Canonical())
	}
	want := []Node{
		{Kind: "seq", Label: "seq of 2", Depth: 0, Lo: 0, Hi: 3},
		{Kind: "basic", Label: "s_trav(U)", Depth: 1, Lo: 0, Hi: 1},
		{Kind: "conc", Label: "conc of 2", Depth: 1, Lo: 1, Hi: 3},
		{Kind: "basic", Label: "rr_trav(2, U)", Depth: 2, Lo: 1, Hi: 2}, // "rrt(" sorts before "rt("
		{Kind: "basic", Label: "r_trav(V)", Depth: 2, Lo: 2, Hi: 3},
	}
	if len(nodes) != len(want) {
		t.Fatalf("outline %+v, want %+v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	if _, _, err := Outline(pattern.Conc{}); err == nil {
		t.Error("Outline(empty Conc) succeeded, want error")
	}
}

// TestEvaluateBasicsSumsToEvaluate: the in-order sum of the per-basic
// misses is Evaluate's result, bit for bit, on every level.
func TestEvaluateBasicsSumsToEvaluate(t *testing.T) {
	prog := mustCompile(t, batchTestPattern())
	for _, h := range []*hardware.Hierarchy{hardware.SmallTest(), hardware.Origin2000(), hardware.ModernX86()} {
		nL := len(h.Levels)
		basics := make([]Misses, prog.NumBasics()*nL)
		prog.EvaluateBasics(h, basics)
		want := prog.Evaluate(h, nil)
		for li := 0; li < nL; li++ {
			var sum Misses
			for b := 0; b < prog.NumBasics(); b++ {
				sum = sum.Add(basics[b*nL+li])
			}
			if math.Float64bits(sum.Seq) != math.Float64bits(want[li].Seq) ||
				math.Float64bits(sum.Rnd) != math.Float64bits(want[li].Rnd) {
				t.Errorf("%s level %d: basics sum %+v != Evaluate %+v", h.Name, li, sum, want[li])
			}
		}
	}
}
