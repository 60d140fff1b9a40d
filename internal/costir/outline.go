package costir

import (
	"strconv"

	"repro/internal/pattern"
)

// Node is one node of a pattern's canonical tree — the tree Compile
// lowers — as listed by Outline in preorder. ⊕ emits no instruction
// and ⊙ brackets its children, so every node covers one contiguous run
// of the program's basic instructions: [Lo, Hi) in emission order, the
// order in which EvaluateBasics reports per-basic misses.
type Node struct {
	// Kind is "basic", "seq" or "conc".
	Kind string
	// Label is "seq of N", "conc of N", or the Table-2 rendering of a
	// basic pattern with its canonical parameters.
	Label string
	// Depth is the tree depth (0 = root).
	Depth int
	// Lo and Hi bound the basic instructions the node covers.
	Lo, Hi int
}

// Outline compiles p like Compile and also returns its canonical tree
// in preorder: ⊕ flattened, ⊙ operands sorted, one Node per tree node.
// Two patterns with the same canonical form get the same outline.
func Outline(p pattern.Pattern) (*Program, []Node, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, nil, err
	}
	var c canonizer
	root := c.canon(p, map[regionID]int32{})
	var nodes []Node
	next := 0
	var walk func(n *cnode, depth int)
	walk = func(n *cnode, depth int) {
		i := len(nodes)
		nodes = append(nodes, Node{Depth: depth, Lo: next})
		switch n.op {
		case opSeq:
			nodes[i].Kind, nodes[i].Label = "seq", "seq of "+strconv.Itoa(len(n.kids))
		case opConc:
			nodes[i].Kind, nodes[i].Label = "conc", "conc of "+strconv.Itoa(len(n.kids))
		default:
			nodes[i].Kind, nodes[i].Label = "basic", n.basic().String()
			next++
		}
		for _, k := range n.kids {
			walk(k, depth+1)
		}
		nodes[i].Hi = next
	}
	walk(root, 0)
	return c.compile(root), nodes, nil
}

// basic rebuilds a basic node as a pattern carrying its canonical
// parameters, so equal canonical forms render equal labels.
func (n *cnode) basic() pattern.Pattern {
	switch n.op {
	case opSTrav:
		return pattern.STrav{R: n.reg, U: n.u, NoSeq: n.noSeq}
	case opRSTrav:
		return pattern.RSTrav{R: n.reg, U: n.u, Repeats: n.a, Dir: n.dir, NoSeq: n.noSeq}
	case opRTrav:
		return pattern.RTrav{R: n.reg, U: n.u}
	case opRRTrav:
		return pattern.RRTrav{R: n.reg, U: n.u, Repeats: n.a}
	case opRAcc:
		return pattern.RAcc{R: n.reg, U: n.u, Count: n.a}
	default:
		return pattern.Nest{R: n.reg, M: n.m, Inner: n.inner, U: n.u, Count: n.a, Order: n.order, NoSeq: n.noSeq}
	}
}
