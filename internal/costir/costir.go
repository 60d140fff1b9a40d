// Package costir compiles the paper's compound data-access patterns
// (Table 2, combined with ⊕ and ⊙ per Section 5) into a flat,
// immutable cost IR — an instruction program over a dense table of
// deduplicated regions — evaluated by an allocation-free stack machine
// (eval.go).
//
// It is the model's one production pricer: Evaluate, plan pricing,
// grid sweeps and Explain (via Outline and EvaluateBasics) all run on
// it. The recursive tree walker — kept in internal/cost's test code as
// the reference oracle — reproduces the paper faithfully but pays
// interface dispatch per node and a fresh pointer-keyed cache-state
// map per level per evaluation. Analytical cost models earn their keep
// by being orders of magnitude cheaper than simulation, and a query
// optimizer calls the model once per candidate plan, so the model's
// own evaluation path is a hot path.
// Compilation moves everything shape-dependent out of it:
//
//   - Canonicalization (canon below): bytes-used parameters resolved,
//     nested ⊕ flattened (associativity), ⊙ operands sorted
//     (commutativity — the model's miss sums, footprint shares and
//     state merges are all order-independent), and don't-care fields
//     normalized. Two patterns with the same canonical form compile to
//     the same program, which makes the canonical string a correct
//     interning key for compile caches (see CanonicalKey).
//   - Region deduplication: regions are identified by canonical
//     identity — name, item count, item width, and parent chain — not
//     by pointer. Structurally identical *region.Region values that
//     were allocated separately fold into one dense index, so cache
//     state becomes a preallocated []float64 instead of a
//     map[*region.Region]float64, and a ⊕-fold over two copies of the
//     "same" region no longer maintains divergent states.
//   - Flattening: the pattern tree becomes one linear instruction
//     array (basic-pattern opcodes plus ⊙ bracket markers) and one
//     linear footprint program, both walked without recursion or
//     dispatch on interface types.
//
// A compiled Program is immutable and safe for concurrent use; its
// Evaluate method computes every cache level in a single pass over the
// instruction stream and performs no heap allocation in steady state
// (scratch buffers are pooled per program). The parity, property and
// fuzz tests of internal/cost verify it agrees with the tree-walker
// oracle on randomized compound patterns.
package costir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pattern"
	"repro/internal/region"
)

// op is an IR opcode. The first six mirror the basic patterns of
// Table 2; the last three bracket concurrent (⊙) groups in the
// instruction stream. Sequential combination (⊕) needs no opcode at
// all: the evaluator threads cache state through consecutive
// instructions, which is exactly Eq. 5.2.
type op uint8

const (
	opSTrav op = iota
	opRSTrav
	opRTrav
	opRRTrav
	opRAcc
	opNest
	opSeq  // canonical-tree node only; never emitted
	opConc // begin ⊙ group: Reg = first footprint slot, N = child count
	opNext // between ⊙ children
	opEnd  // end ⊙ group
)

// instr is one IR instruction. Basic-pattern instructions carry the
// pattern parameters with the region resolved to its dense index;
// opConc carries the footprint-slot range of its children.
type instr struct {
	Op    op
	Reg   int32 // basic: region index; opConc: first footprint slot
	N     int32 // opConc: child count
	U     int64 // bytes used per item (resolved, 0 < U ≤ W)
	A     int64 // repeats (rs/rr_trav), access count (r_acc), per-cursor count (nest)
	M     int64 // nest: sub-region count
	Dir   pattern.Direction
	Order pattern.Order
	Inner pattern.InnerKind
	NoSeq bool
}

// footOp is an opcode of the footprint program: a postorder expression
// evaluated once per cache level before the main pass, filling one
// slot per ⊙ child with its footprint F(P) (Section 5.2).
type footOp uint8

const (
	fOne   footOp = iota // push 1 (plain stream)
	fLines               // push |R|_B
	fRTrav               // push |R|_B if gaps < B else 1 (r_trav's conditional footprint)
	fMax                 // fold N entries with max (⊕)
	fSum                 // fold N entries with sum (⊙)
	fStore               // store top of stack into slot N (keep it on the stack)
)

type footInstr struct {
	Op  footOp
	Reg int32
	N   int32 // fold arity, or slot index for fStore
	U   int64 // fRTrav: resolved bytes-used
}

// RegionInfo is one deduplicated region of a compiled program.
type RegionInfo struct {
	Name string
	N, W int64
	// Parent is the dense index of the parent region (sub-region
	// chains matter for residency inheritance and state merging), or
	// -1 for a root region.
	Parent int32
}

// Size returns ‖R‖ = N·W in bytes.
func (ri RegionInfo) Size() int64 { return ri.N * ri.W }

// Program is a compiled pattern: an immutable flat representation safe
// for concurrent evaluation and for sharing across hardware profiles
// (nothing in it depends on the hierarchy).
type Program struct {
	canonical string
	regions   []RegionInfo
	instrs    []instr
	foot      []footInstr
	nSlots    int // total ⊙ children (footprint slots)
	maxDepth  int // deepest ⊙ nesting
	footDepth int // operand-stack bound of the footprint program
	numBasics int

	pool evalPool
}

// Canonical returns the canonical form of the compiled pattern: a
// deterministic rendering with resolved parameters, sorted ⊙ operands
// and regions identified by name, item count, width and parent chain.
// Two patterns with equal canonical forms are cost-equivalent on every
// hierarchy, which makes the string a correct cache/interning key.
func (p *Program) Canonical() string { return p.canonical }

// NumRegions returns the number of deduplicated regions.
func (p *Program) NumRegions() int { return len(p.regions) }

// NumInstructions returns the length of the instruction stream.
func (p *Program) NumInstructions() int { return len(p.instrs) }

// NumBasics returns the number of basic-pattern instructions.
func (p *Program) NumBasics() int { return p.numBasics }

// Regions returns a copy of the deduplicated region table.
func (p *Program) Regions() []RegionInfo {
	return append([]RegionInfo(nil), p.regions...)
}

// Compile canonicalizes and compiles a pattern. The pattern must
// validate (pattern.Validate); the returned program is immutable.
func Compile(p pattern.Pattern) (*Program, error) {
	root, err := canonicalTree(p)
	if err != nil {
		return nil, err
	}
	return compileTree(root), nil
}

// compileTree lowers a canonical tree into a Program.
func compileTree(root *cnode) *Program {
	c := compiler{regIdx: map[string]int32{}}
	c.emit(root)
	return &Program{
		canonical: root.key,
		regions:   c.regions,
		instrs:    c.instrs,
		foot:      c.foot,
		nSlots:    int(c.nSlots),
		maxDepth:  c.maxDepth,
		footDepth: c.footMax,
		numBasics: c.numBasics,
	}
}

// CanonicalKey returns the canonical form of p without building the
// instruction program — the cheap first phase of Compile, for callers
// that only need a cache key to look up an already-compiled program.
func CanonicalKey(p pattern.Pattern) (string, error) {
	root, err := canonicalTree(p)
	if err != nil {
		return "", err
	}
	return root.key, nil
}

// cnode is one node of the canonicalized pattern tree: basic patterns
// with resolved parameters, or ⊕/⊙ nodes with flattened/sorted
// children. key is the node's canonical rendering.
type cnode struct {
	op    op
	reg   *region.Region
	u     int64
	a     int64
	m     int64
	dir   pattern.Direction
	order pattern.Order
	inner pattern.InnerKind
	noSeq bool
	kids  []*cnode
	key   string
}

func canonicalTree(p pattern.Pattern) (*cnode, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	memo := map[*region.Region]string{}
	return canon(p, memo), nil
}

// regKey renders a region's canonical identity: quoted name, item
// count, width, and (recursively) the parent chain. Two regions with
// equal keys are indistinguishable to the cost model.
func regKey(r *region.Region, memo map[*region.Region]string) string {
	if k, ok := memo[r]; ok {
		return k
	}
	k := strconv.Quote(r.Name) + "!" + strconv.FormatInt(r.N, 10) + "!" + strconv.FormatInt(r.W, 10)
	if r.Parent != nil {
		k += "<" + regKey(r.Parent, memo)
	}
	memo[r] = k
	return k
}

func boolKey(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// canon canonicalizes one subtree. It assumes the pattern validated.
func canon(p pattern.Pattern, memo map[*region.Region]string) *cnode {
	switch q := p.(type) {
	case pattern.STrav:
		u := pattern.Used(q.U, q.R)
		return &cnode{op: opSTrav, reg: q.R, u: u, noSeq: q.NoSeq,
			key: "st(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ";" + boolKey(q.NoSeq) + ")"}
	case pattern.RSTrav:
		u := pattern.Used(q.U, q.R)
		return &cnode{op: opRSTrav, reg: q.R, u: u, a: q.Repeats, dir: q.Dir, noSeq: q.NoSeq,
			key: "rst(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Repeats, 10) + ";" + q.Dir.String() + ";" + boolKey(q.NoSeq) + ")"}
	case pattern.RTrav:
		u := pattern.Used(q.U, q.R)
		return &cnode{op: opRTrav, reg: q.R, u: u,
			key: "rt(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ")"}
	case pattern.RRTrav:
		u := pattern.Used(q.U, q.R)
		return &cnode{op: opRRTrav, reg: q.R, u: u, a: q.Repeats,
			key: "rrt(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Repeats, 10) + ")"}
	case pattern.RAcc:
		u := pattern.Used(q.U, q.R)
		return &cnode{op: opRAcc, reg: q.R, u: u, a: q.Count,
			key: "ra(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Count, 10) + ")"}
	case pattern.Nest:
		u := pattern.Used(q.U, q.R)
		// Normalize don't-care fields so spurious differences do not
		// split cache entries: Count only matters for an r_acc inner
		// pattern; Order and NoSeq only for an s_trav inner pattern.
		count, order, noSeq := int64(0), q.Order, q.NoSeq
		if q.Inner == pattern.InnerRAcc {
			count = q.Count
		}
		if q.Inner != pattern.InnerSTrav {
			order, noSeq = pattern.OrderRandom, false
		}
		return &cnode{op: opNest, reg: q.R, u: u, a: count, m: q.M, order: order, inner: q.Inner, noSeq: noSeq,
			key: "nst(" + regKey(q.R, memo) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.M, 10) + ";" + q.Inner.String() + ";" +
				strconv.FormatInt(count, 10) + ";" + order.String() + ";" + boolKey(noSeq) + ")"}
	case pattern.Seq:
		// ⊕ is associative: flatten nested Seq nodes. (⊙ is *not*
		// flattened — nested concurrent groups divide the cache
		// hierarchically and singleton/nested groups are preserved so
		// the IR matches the tree walker exactly.)
		n := &cnode{op: opSeq}
		for _, sub := range q {
			k := canon(sub, memo)
			if k.op == opSeq {
				n.kids = append(n.kids, k.kids...)
			} else {
				n.kids = append(n.kids, k)
			}
		}
		n.key = compoundKey("+", n.kids)
		return n
	case pattern.Conc:
		// ⊙ is commutative: every term of the model (miss sums,
		// footprint shares, max-merged result states) is independent
		// of operand order, so sort children by canonical key.
		n := &cnode{op: opConc, kids: make([]*cnode, 0, len(q))}
		for _, sub := range q {
			n.kids = append(n.kids, canon(sub, memo))
		}
		sort.SliceStable(n.kids, func(i, j int) bool { return n.kids[i].key < n.kids[j].key })
		n.key = compoundKey("*", n.kids)
		return n
	default:
		panic(fmt.Sprintf("costir: unknown pattern type %T", p))
	}
}

func compoundKey(opSym string, kids []*cnode) string {
	var b strings.Builder
	size := len(opSym) + 2 + len(kids)
	for _, k := range kids {
		size += len(k.key)
	}
	b.Grow(size)
	b.WriteString(opSym)
	b.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.key)
	}
	b.WriteByte(')')
	return b.String()
}

// compiler lowers a canonical tree into the two instruction streams.
type compiler struct {
	regions []RegionInfo
	regIdx  map[string]int32 // canonical region key -> dense index
	regMemo map[*region.Region]string

	instrs    []instr
	foot      []footInstr
	nSlots    int32
	numBasics int

	depth, maxDepth int
	footSP, footMax int
}

// regIndex interns a region (and, first, its ancestor chain) into the
// dense table, deduplicating by canonical identity.
func (c *compiler) regIndex(r *region.Region) int32 {
	if c.regMemo == nil {
		c.regMemo = map[*region.Region]string{}
	}
	key := regKey(r, c.regMemo)
	if idx, ok := c.regIdx[key]; ok {
		return idx
	}
	parent := int32(-1)
	if r.Parent != nil {
		parent = c.regIndex(r.Parent)
	}
	idx := int32(len(c.regions))
	c.regions = append(c.regions, RegionInfo{Name: r.Name, N: r.N, W: r.W, Parent: parent})
	c.regIdx[key] = idx
	return idx
}

func (c *compiler) pushFoot(fi footInstr) {
	c.foot = append(c.foot, fi)
	switch fi.Op {
	case fOne, fLines, fRTrav:
		c.footSP++
		if c.footSP > c.footMax {
			c.footMax = c.footSP
		}
	case fMax, fSum:
		c.footSP -= int(fi.N) - 1
	}
}

func (c *compiler) emit(n *cnode) {
	switch n.op {
	case opSeq:
		// ⊕ emits no instruction: consecutive instructions thread the
		// cache state exactly as Eq. 5.2 folds it. Footprint of ⊕ is
		// the max over children (one runs at a time).
		for _, k := range n.kids {
			c.emit(k)
		}
		c.pushFoot(footInstr{Op: fMax, N: int32(len(n.kids))})
	case opConc:
		slot0 := c.nSlots
		c.nSlots += int32(len(n.kids))
		c.instrs = append(c.instrs, instr{Op: opConc, Reg: slot0, N: int32(len(n.kids))})
		c.depth++
		if c.depth > c.maxDepth {
			c.maxDepth = c.depth
		}
		for i, k := range n.kids {
			if i > 0 {
				c.instrs = append(c.instrs, instr{Op: opNext})
			}
			c.emit(k)
			// Record the child's footprint in its slot; the value
			// stays on the stack for the enclosing fold.
			c.pushFoot(footInstr{Op: fStore, N: slot0 + int32(i)})
		}
		c.instrs = append(c.instrs, instr{Op: opEnd})
		c.depth--
		c.pushFoot(footInstr{Op: fSum, N: int32(len(n.kids))})
	default:
		ri := c.regIndex(n.reg)
		c.instrs = append(c.instrs, instr{
			Op: n.op, Reg: ri, U: n.u, A: n.a, M: n.m,
			Dir: n.dir, Order: n.order, Inner: n.inner, NoSeq: n.noSeq,
		})
		c.numBasics++
		switch n.op {
		case opSTrav:
			c.pushFoot(footInstr{Op: fOne})
		case opRTrav:
			c.pushFoot(footInstr{Op: fRTrav, Reg: ri, U: n.u})
		default:
			c.pushFoot(footInstr{Op: fLines, Reg: ri})
		}
	}
}
