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
//     interning key for compile caches (see CanonicalKey). The string
//     is rendered once, in one pass, into a buffer of its exact
//     length; only ⊙ operands get keys of their own, because the ⊙
//     sort compares them.
//   - Region deduplication: regions are identified by canonical
//     identity — name, item count, item width, and parent chain — not
//     by pointer. Structurally identical *region.Region values that
//     were allocated separately fold into one dense index, so cache
//     state becomes a preallocated []float64 instead of a
//     map[*region.Region]float64, and a ⊕-fold over two copies of the
//     "same" region no longer maintains divergent states. Regions are
//     interned by (name, N, W, parent identity) in one memo shared by
//     canonicalization and compilation, and each region gets a
//     preorder interval over the region forest so the evaluator tests
//     ancestry by comparison rather than by walking parent chains.
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
	"slices"
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
// opConc carries the footprint-slot range of its children. Fields run
// from widest to narrowest, which packs an instruction into 64 bytes.
type instr struct {
	U     int64 // bytes used per item (resolved, 0 < U ≤ W)
	A     int64 // repeats (rs/rr_trav), access count (r_acc), per-cursor count (nest)
	M     int64 // nest: sub-region count
	Dir   pattern.Direction
	Order pattern.Order
	Inner pattern.InnerKind
	Reg   int32 // basic: region index; opConc: first footprint slot
	N     int32 // opConc: child count
	Op    op
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
	// pre and end bound the region's subtree in the preorder numbering
	// of the region forest (setIntervals).
	pre, end int32
}

// Size returns ‖R‖ = N·W in bytes.
func (ri RegionInfo) Size() int64 { return ri.N * ri.W }

// contains reports whether ri is x or an ancestor of x.
func (ri *RegionInfo) contains(x *RegionInfo) bool { return ri.pre <= x.pre && x.pre < ri.end }

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
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	var c canonizer
	return c.compile(c.canon(p, map[regionID]int32{})), nil
}

// CanonicalKey returns the canonical form of p without building the
// instruction program — the cheap first phase of Compile, for callers
// that only need a cache key to look up an already-compiled program.
func CanonicalKey(p pattern.Pattern) (string, error) {
	if err := pattern.Validate(p); err != nil {
		return "", err
	}
	var c canonizer
	return c.key(c.canon(p, map[regionID]int32{})), nil
}

// cnode is one node of the canonicalized pattern tree: basic patterns
// with resolved parameters, or ⊕/⊙ nodes with flattened/sorted
// children. keyLen is the length of the node's canonical rendering;
// key holds the rendering itself only once something asked for it —
// a ⊙ operand's key when the ⊙ sort compares it, the root's when the
// canonical form is rendered.
type cnode struct {
	op     op
	reg    *region.Region
	rid    int32 // canonical region identity (index into canonizer.regs)
	u      int64
	a      int64
	m      int64
	dir    pattern.Direction
	order  pattern.Order
	inner  pattern.InnerKind
	noSeq  bool
	kids   []*cnode
	keyLen int
	key    string
}

// canonizer canonicalizes one pattern, and its region table is the one
// region memo of the compilation: every distinct region identity —
// name, item count, width and parent identity — is interned once, in
// the order canonicalization meets it, and the compiler maps these
// identities to dense indices in emission order. The map from identity
// to table index is passed to canon as ids rather than held here: as a
// local of the caller it stays on the stack for small patterns.
type canonizer struct {
	regs  []canonRegion
	byPtr map[*region.Region]int32
	tail  []byte // rendering scratch
	// nInstrs and nFoot count the instructions the tree compiles to,
	// so the compiler allocates its streams once.
	nInstrs, nFoot int
}

// regionID is a region's canonical identity. Two regions with equal
// identities are indistinguishable to the cost model.
type regionID struct {
	name   string
	n, w   int64
	parent int32 // identity of the parent region, or -1
}

type canonRegion struct {
	id     regionID
	seg    string // the region's own rendering: quoted name!N!W
	keyLen int    // length of the full rendering: seg, then "<" and the parent's
}

// region interns r (and, first, its parent chain) and returns its
// canonical identity. A root's identity is its own fields; a
// sub-region's also needs its parent's, so sub-regions are memoized by
// pointer to resolve each chain once.
func (c *canonizer) region(r *region.Region, ids map[regionID]int32) int32 {
	id := regionID{name: r.Name, n: r.N, w: r.W, parent: -1}
	if r.Parent != nil {
		if i, ok := c.byPtr[r]; ok {
			return i
		}
		id.parent = c.region(r.Parent, ids)
	}
	i, ok := ids[id]
	if !ok {
		i = int32(len(c.regs))
		b := strconv.AppendQuote(c.tail[:0], r.Name)
		b = strconv.AppendInt(append(b, '!'), r.N, 10)
		b = strconv.AppendInt(append(b, '!'), r.W, 10)
		c.tail = b
		seg := string(b)
		keyLen := len(seg)
		if id.parent >= 0 {
			keyLen += 1 + c.regs[id.parent].keyLen
		}
		c.regs = append(c.regs, canonRegion{id: id, seg: seg, keyLen: keyLen})
		ids[id] = i
	}
	if r.Parent != nil {
		if c.byPtr == nil {
			c.byPtr = map[*region.Region]int32{}
		}
		c.byPtr[r] = i
	}
	return i
}

// basicName is the canonical rendering's name of each basic opcode.
var basicName = [...]string{opSTrav: "st", opRSTrav: "rst", opRTrav: "rt", opRRTrav: "rrt", opRAcc: "ra", opNest: "nst"}

// basic builds the canonical node of a basic pattern over region r.
func (c *canonizer) basic(n *cnode, r *region.Region, ids map[regionID]int32) *cnode {
	n.reg, n.rid = r, c.region(r, ids)
	c.nInstrs++
	c.nFoot++
	c.tail = c.appendTail(c.tail[:0], n)
	n.keyLen = len(basicName[n.op]) + 1 + c.regs[n.rid].keyLen + len(c.tail)
	return n
}

// canon canonicalizes one subtree. It assumes the pattern validated.
func (c *canonizer) canon(p pattern.Pattern, ids map[regionID]int32) *cnode {
	switch q := p.(type) {
	case pattern.STrav:
		return c.basic(&cnode{op: opSTrav, u: pattern.Used(q.U, q.R), noSeq: q.NoSeq}, q.R, ids)
	case pattern.RSTrav:
		return c.basic(&cnode{op: opRSTrav, u: pattern.Used(q.U, q.R), a: q.Repeats, dir: q.Dir, noSeq: q.NoSeq}, q.R, ids)
	case pattern.RTrav:
		return c.basic(&cnode{op: opRTrav, u: pattern.Used(q.U, q.R)}, q.R, ids)
	case pattern.RRTrav:
		return c.basic(&cnode{op: opRRTrav, u: pattern.Used(q.U, q.R), a: q.Repeats}, q.R, ids)
	case pattern.RAcc:
		return c.basic(&cnode{op: opRAcc, u: pattern.Used(q.U, q.R), a: q.Count}, q.R, ids)
	case pattern.Nest:
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
		return c.basic(&cnode{op: opNest, u: pattern.Used(q.U, q.R), a: count, m: q.M, order: order, inner: q.Inner, noSeq: noSeq}, q.R, ids)
	case pattern.Seq:
		// ⊕ is associative: flatten nested Seq nodes. (⊙ is *not*
		// flattened — nested concurrent groups divide the cache
		// hierarchically and singleton/nested groups are preserved so
		// the IR matches the tree walker exactly.)
		n := &cnode{op: opSeq}
		for _, sub := range q {
			k := c.canon(sub, ids)
			if k.op == opSeq {
				n.kids = append(n.kids, k.kids...)
				c.nFoot-- // k's fold is absorbed into n's
			} else {
				n.kids = append(n.kids, k)
			}
		}
		n.keyLen = compoundLen(n.kids)
		c.nFoot++
		return n
	case pattern.Conc:
		// ⊙ is commutative: every term of the model (miss sums,
		// footprint shares, max-merged result states) is independent
		// of operand order, so sort children by canonical key.
		n := &cnode{op: opConc, kids: make([]*cnode, 0, len(q))}
		for _, sub := range q {
			n.kids = append(n.kids, c.canon(sub, ids))
		}
		slices.SortStableFunc(n.kids, func(a, b *cnode) int { return strings.Compare(c.key(a), c.key(b)) })
		n.keyLen = compoundLen(n.kids)
		// Bracket, separators and end; a footprint store per child and
		// the sum.
		c.nInstrs += len(n.kids) + 1
		c.nFoot += len(n.kids) + 1
		return n
	default:
		panic(fmt.Sprintf("costir: unknown pattern type %T", p))
	}
}

// compoundLen is the rendering length of a ⊕/⊙ node: "+(" or "*(",
// the children separated by commas, ")".
func compoundLen(kids []*cnode) int {
	n := 2 + len(kids)
	for _, k := range kids {
		n += k.keyLen
	}
	return n
}

// key returns n's canonical rendering, rendering it on first use in
// one pass into a buffer of exactly keyLen bytes. A subtree whose key
// already exists is copied, not re-rendered.
func (c *canonizer) key(n *cnode) string {
	if n.key == "" {
		var b strings.Builder
		b.Grow(n.keyLen)
		c.render(&b, n)
		n.key = b.String()
	}
	return n.key
}

func (c *canonizer) render(b *strings.Builder, n *cnode) {
	if n.key != "" {
		b.WriteString(n.key)
		return
	}
	switch n.op {
	case opSeq, opConc:
		if n.op == opSeq {
			b.WriteString("+(")
		} else {
			b.WriteString("*(")
		}
		for i, k := range n.kids {
			if i > 0 {
				b.WriteByte(',')
			}
			c.render(b, k)
		}
		b.WriteByte(')')
	default:
		b.WriteString(basicName[n.op])
		b.WriteByte('(')
		// The region's identity: quoted name, item count, width, then
		// "<" and the parent chain's.
		for r := n.rid; ; {
			b.WriteString(c.regs[r].seg)
			if r = c.regs[r].id.parent; r < 0 {
				break
			}
			b.WriteByte('<')
		}
		c.tail = c.appendTail(c.tail[:0], n)
		b.Write(c.tail)
	}
}

// appendTail appends the rendering of a basic node's parameters after
// its region: resolved bytes-used, the opcode's own parameters, ")".
func (c *canonizer) appendTail(dst []byte, n *cnode) []byte {
	dst = strconv.AppendInt(append(dst, ';'), n.u, 10)
	switch n.op {
	case opSTrav:
		dst = appendBool(append(dst, ';'), n.noSeq)
	case opRSTrav:
		dst = strconv.AppendInt(append(dst, ';'), n.a, 10)
		dst = append(append(dst, ';'), n.dir.String()...)
		dst = appendBool(append(dst, ';'), n.noSeq)
	case opRRTrav, opRAcc:
		dst = strconv.AppendInt(append(dst, ';'), n.a, 10)
	case opNest:
		dst = strconv.AppendInt(append(dst, ';'), n.m, 10)
		dst = append(append(dst, ';'), n.inner.String()...)
		dst = strconv.AppendInt(append(dst, ';'), n.a, 10)
		dst = append(append(dst, ';'), n.order.String()...)
		dst = appendBool(append(dst, ';'), n.noSeq)
	}
	return append(dst, ')')
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, '1')
	}
	return append(dst, '0')
}

// compile lowers a canonical tree into a Program.
func (c *canonizer) compile(root *cnode) *Program {
	cc := compiler{
		cregs:   c.regs,
		dense:   make([]int32, len(c.regs)),
		regions: make([]RegionInfo, 0, len(c.regs)),
		instrs:  make([]instr, 0, c.nInstrs),
		foot:    make([]footInstr, 0, c.nFoot),
	}
	for i := range cc.dense {
		cc.dense[i] = -1
	}
	cc.emit(root)
	setIntervals(cc.regions)
	return &Program{
		canonical: c.key(root),
		regions:   cc.regions,
		instrs:    cc.instrs,
		foot:      cc.foot,
		nSlots:    int(cc.nSlots),
		maxDepth:  cc.maxDepth,
		footDepth: cc.footMax,
		numBasics: cc.numBasics,
	}
}

// compiler lowers a canonical tree into the two instruction streams.
type compiler struct {
	cregs   []canonRegion
	dense   []int32 // canonical region identity -> dense index, -1 until interned
	regions []RegionInfo

	instrs    []instr
	foot      []footInstr
	nSlots    int32
	numBasics int

	depth, maxDepth int
	footSP, footMax int
}

// regIndex interns a region (and, first, its ancestor chain) into the
// dense table: indices follow emission order, parents before children.
func (c *compiler) regIndex(rid int32) int32 {
	if d := c.dense[rid]; d >= 0 {
		return d
	}
	id := &c.cregs[rid].id
	parent := int32(-1)
	if id.parent >= 0 {
		parent = c.regIndex(id.parent)
	}
	d := int32(len(c.regions))
	c.regions = append(c.regions, RegionInfo{Name: id.name, N: id.n, W: id.w, Parent: parent})
	c.dense[rid] = d
	return d
}

// setIntervals numbers the region forest in preorder, children in
// dense-index order, so that region x's subtree is exactly the regions
// whose pre lies in [x.pre, x.end): ancestry becomes two integer
// comparisons (RegionInfo.contains) instead of a parent-chain walk.
// It relies on regIndex's order — every parent precedes its children.
func setIntervals(regs []RegionInfo) {
	// Subtree sizes, accumulated in end, children before parents.
	for i := range regs {
		regs[i].end = 1
	}
	for i := len(regs) - 1; i >= 0; i-- {
		if p := regs[i].Parent; p >= 0 {
			regs[p].end += regs[i].end
		}
	}
	// A root takes the next free block of positions, a child the next
	// free slot in its parent's block; next[x] is x's free slot.
	next := make([]int32, len(regs))
	var free int32
	for i := range regs {
		r := &regs[i]
		if r.Parent < 0 {
			r.pre = free
			free += r.end
		} else {
			r.pre = next[r.Parent]
			next[r.Parent] += r.end
		}
		next[i] = r.pre + 1
		r.end += r.pre
	}
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
		ri := c.regIndex(n.rid)
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
