package cost

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/costir"
	"repro/internal/pattern"
)

// Explain produces an itemized cost breakdown of a pattern: for every
// node of its canonical tree (costir.Outline: ⊕ flattened, ⊙ operands
// sorted), the per-level misses and memory time. It runs on the same
// compiled program and evaluator as Evaluate, so the breakdown and the
// totals come from one pricer. Optimizer developers use it to see
// *where* a plan's memory cost comes from.

// ExplainNode is one canonical-tree node's contribution.
type ExplainNode struct {
	// Pattern is the node's label: "seq of N", "conc of N", or the
	// Table-2 rendering of a basic pattern.
	Pattern string
	// Depth is the tree depth (0 = root).
	Depth int
	// Kind is "basic", "seq" or "conc".
	Kind string
	// PerLevel holds the node's misses per hierarchy level: the
	// in-order sum over the basic patterns the node covers.
	PerLevel []Misses
	// TimeNS is the node's memory time (Eq. 3.1 over PerLevel).
	TimeNS float64
}

// Explanation is the itemized breakdown plus the totals.
type Explanation struct {
	Model *Model
	Nodes []ExplainNode
}

// Total returns the root node (whole-pattern totals).
func (e *Explanation) Total() ExplainNode { return e.Nodes[0] }

// Render writes an indented cost tree.
func (e *Explanation) Render(w io.Writer) {
	levels := e.Model.Hierarchy().Levels
	fmt.Fprintf(w, "%-60s %12s", "pattern", "time[ms]")
	for _, l := range levels {
		fmt.Fprintf(w, " %12s", l.Name+"-miss")
	}
	fmt.Fprintln(w)
	for _, n := range e.Nodes {
		label := strings.Repeat("  ", n.Depth) + n.Pattern
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		fmt.Fprintf(w, "%-60s %12.3f", label, n.TimeNS/1e6)
		for _, m := range n.PerLevel {
			fmt.Fprintf(w, " %12.0f", m.Total())
		}
		fmt.Fprintln(w)
	}
}

// Explain evaluates p on cold caches and returns the itemized breakdown,
// one row per canonical-tree node in preorder. Each basic row holds the
// misses its instruction contributed to Evaluate's pass; a compound
// row sums its basics in program order, so the root row is the very
// floating-point sum Evaluate returns.
func (m *Model) Explain(p pattern.Pattern) (*Explanation, error) {
	prog, outline, err := costir.Outline(p)
	if err != nil {
		return nil, err
	}
	nL := len(m.hier.Levels)
	basics := make([]Misses, prog.NumBasics()*nL)
	prog.EvaluateBasics(m.hier, basics)
	e := &Explanation{Model: m, Nodes: make([]ExplainNode, len(outline))}
	for i, n := range outline {
		per := make([]Misses, nL)
		for b := n.Lo; b < n.Hi; b++ {
			for li := range per {
				per[li] = per[li].Add(basics[b*nL+li])
			}
		}
		e.Nodes[i] = ExplainNode{Pattern: n.Label, Depth: n.Depth, Kind: n.Kind, PerLevel: per, TimeNS: e.timeOf(per)}
	}
	return e, nil
}

// timeOf scores per-level misses with Eq. 3.1 exactly as
// Result.MemoryTimeNS does.
func (e *Explanation) timeOf(mi []Misses) float64 {
	var t float64
	for i, l := range e.Model.hier.Levels {
		t += LevelResult{Level: l, Misses: mi[i]}.MemoryTimeNS()
	}
	return t
}
