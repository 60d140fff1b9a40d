package costir

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
)

// This file is the zero-allocation evaluator of compiled programs. It
// mirrors the semantics of the reference tree walker (test code,
// internal/cost/oracle_test.go) instruction by instruction:
//
//   - Eq. 5.1: basic instructions adjust their cold-cache count by the
//     resident fraction of their region (inherited through the
//     sub-region parent chain).
//   - Eq. 5.2: ⊕ is implicit — cache state threads from one
//     instruction to the next.
//   - Eq. 5.3: opConc/opNext/opEnd divide the cache among ⊙ children
//     in footprint proportion, evaluate every child from the same
//     entry state, and max-merge the children's result states.
//
// The cache state of one level is a dense []float64 over the program's
// deduplicated region table (rho per region; 0 = not resident), so the
// pointer-keyed maps of the tree walker become flat rows. Each row
// additionally carries a sorted list of its non-zero indices: state
// merges, snapshots and restores walk only the resident entries (≤
// maxStateEntries) instead of the whole region table, which keeps
// evaluation near-linear in the instruction count even for plan-level
// programs whose partitioned joins intern hundreds of sub-regions.
// Iteration follows the lists in ascending index order — the same order
// a dense scan would visit — so floating-point sums are bit-identical
// to the reference walker's. Whether two regions are related (one an
// ancestor-or-self of the other) is two integer comparisons on their
// preorder intervals (RegionInfo.contains), so no step walks a
// sub-region chain: the cost per instruction and per resident entry is
// independent of how deep quick sort or partitioning nests regions.
// All cache levels are computed in a single pass over the instruction
// stream, and every scratch buffer lives in a pooled evaluator, so
// steady-state evaluation performs no heap allocation.

// Misses is the per-level pair (M^s, M^r) of expected sequential and
// random misses, shared with internal/cost via internal/costmath.
type Misses = costmath.Misses

// maxStateEntries bounds the number of resident regions tracked per
// level, mirroring the tree walker's bound (internal/cost/oracle_test.go):
// retention keeps the entries holding the most resident bytes — the
// only ones that can change a later prediction.
const maxStateEntries = 96

// Evaluate computes the expected misses of the compiled pattern per
// level of h, on cold caches, appending one Misses per hierarchy level
// to dst[:0] and returning it. Passing a dst with capacity
// len(h.Levels) makes the call allocation-free. Evaluate is safe for
// concurrent use on the same Program.
func (p *Program) Evaluate(h *hardware.Hierarchy, dst []Misses) []Misses {
	nL := len(h.Levels)
	ev := p.getEvaluator(nL)
	ev.run(p, h.Levels, nil)
	dst = append(dst[:0], ev.miss[:nL]...)
	p.pool.put(ev)
	return dst
}

// EvaluateBasics runs Evaluate's pass over h and writes every basic
// instruction's own per-level misses into basics, basic-major: basic b
// (in emission order, the order of Outline's ranges) at level li lands
// in basics[b*len(h.Levels)+li]. basics must hold at least
// NumBasics()·len(h.Levels) entries. Evaluate accumulates exactly
// these values in emission order, so summing them in that order from
// zero reproduces its result bit for bit.
func (p *Program) EvaluateBasics(h *hardware.Hierarchy, basics []Misses) {
	ev := p.getEvaluator(len(h.Levels))
	ev.run(p, h.Levels, basics[:p.numBasics*len(h.Levels)])
	p.pool.put(ev)
}

// MemoryTimeNS computes T_mem (Eq. 3.1) of the compiled pattern on h:
// per-level misses scored with the level miss latencies. It performs
// no heap allocation in steady state.
func (p *Program) MemoryTimeNS(h *hardware.Hierarchy) float64 {
	ev := p.getEvaluator(len(h.Levels))
	ev.run(p, h.Levels, nil)
	var t float64
	for i := range h.Levels {
		t += ev.miss[i].Seq*h.Levels[i].SeqMissLatency + ev.miss[i].Rnd*h.Levels[i].RndMissLatency
	}
	p.pool.put(ev)
	return t
}

// evalPool wraps sync.Pool so Program's zero value works.
type evalPool struct{ p sync.Pool }

func (ep *evalPool) get() *evaluator {
	ev, _ := ep.p.Get().(*evaluator)
	return ev
}
func (ep *evalPool) put(ev *evaluator) { ep.p.Put(ev) }

// frame is the scratch state of one active ⊙ group.
type frame struct {
	snap   []float64        // entry state, all levels (children start equal)
	merged []float64        // pointwise max of children's result states
	saved  []costmath.Level // level params before cache division
	// snapNZ / mergedNZ track the non-zero indices of snap and merged
	// per level; snapNZ stays sorted, mergedNZ is sorted before use.
	snapNZ   [][]int32
	mergedNZ [][]int32
	slot0    int32
	n        int32
	child    int32
}

// evaluator holds every scratch buffer one evaluation needs. Buffer
// sizes depend on the program (fixed) and the hierarchy's level count
// (grow-only), so a pooled evaluator reaches a steady state with no
// further allocation.
type evaluator struct {
	nL       int // level capacity buffers are sized for
	state    []float64
	stateNZ  [][]int32 // sorted non-zero indices of state, per level
	miss     []Misses
	lp       []costmath.Level
	frames   []frame
	footVals []float64
	footStk  []float64
	bndIdx   []int32   // boundRow: candidate indices
	key      []float64 // boundRow: resident bytes per region index
	sorter   rowSorter
}

func (p *Program) getEvaluator(nL int) *evaluator {
	ev := p.pool.get()
	if ev == nil {
		ev = &evaluator{}
	}
	ev.ensure(p, nL)
	return ev
}

func (ev *evaluator) ensure(p *Program, nL int) {
	if nL > ev.nL {
		ev.nL = nL
	}
	nR := len(p.regions)
	capL := ev.nL
	if need := capL * nR; len(ev.state) < need {
		ev.state = make([]float64, need)
	}
	if len(ev.miss) < capL {
		ev.miss = make([]Misses, capL)
	}
	if len(ev.lp) < capL {
		ev.lp = make([]costmath.Level, capL)
	}
	if need := p.nSlots * capL; len(ev.footVals) < need {
		ev.footVals = make([]float64, need)
	}
	if len(ev.footStk) < p.footDepth {
		ev.footStk = make([]float64, p.footDepth)
	}
	if cap(ev.bndIdx) < nR {
		ev.bndIdx = make([]int32, 0, nR)
	}
	if len(ev.key) < nR {
		ev.key = make([]float64, nR)
	}
	ev.stateNZ = ensureNZ(ev.stateNZ, capL, nR)
	if len(ev.frames) < p.maxDepth {
		ev.frames = append(ev.frames, make([]frame, p.maxDepth-len(ev.frames))...)
	}
	for i := range ev.frames {
		f := &ev.frames[i]
		if need := capL * nR; len(f.snap) < need {
			f.snap = make([]float64, need)
			f.merged = make([]float64, need)
			// The freshly zeroed buffers make any stale non-zero lists
			// wrong; reset them alongside.
			for li := range f.snapNZ {
				f.snapNZ[li] = f.snapNZ[li][:0]
				f.mergedNZ[li] = f.mergedNZ[li][:0]
			}
		}
		f.snapNZ = ensureNZ(f.snapNZ, capL, nR)
		f.mergedNZ = ensureNZ(f.mergedNZ, capL, nR)
		if len(f.saved) < capL {
			f.saved = make([]costmath.Level, capL)
		}
	}
}

// ensureNZ sizes a per-level non-zero index list set: one slice per
// level, each with room for every region.
func ensureNZ(nz [][]int32, nLevels, nR int) [][]int32 {
	if len(nz) < nLevels {
		nz = append(nz, make([][]int32, nLevels-len(nz))...)
	}
	for i := range nz {
		if cap(nz[i]) < nR {
			nz[i] = make([]int32, 0, nR)
		}
	}
	return nz
}

// run executes the program for all levels in one pass. A non-nil
// basics receives each basic instruction's per-level misses (see
// EvaluateBasics).
func (ev *evaluator) run(p *Program, levels []hardware.Level, basics []Misses) {
	nL, nR := len(levels), len(p.regions)
	for i := 0; i < nL; i++ {
		ev.lp[i] = costmath.Level{
			C: float64(levels[i].Capacity),
			B: float64(levels[i].LineSize),
			L: float64(levels[i].Lines()),
		}
		ev.miss[i] = Misses{}
		ev.stateNZ[i] = ev.stateNZ[i][:0]
	}
	clear(ev.state[:nL*nR])

	ev.footprints(p, nL)

	depth, b := 0, 0
	for ii := range p.instrs {
		in := &p.instrs[ii]
		switch in.Op {
		case opConc:
			f := &ev.frames[depth]
			depth++
			f.slot0, f.n, f.child = in.Reg, in.N, 0
			for li := 0; li < nL; li++ {
				// Snapshot the entry state and reset the merged
				// accumulator, touching only (possibly stale) non-zero
				// entries.
				snapRow := f.snap[li*nR : (li+1)*nR]
				for _, r := range f.snapNZ[li] {
					snapRow[r] = 0
				}
				row := ev.state[li*nR : (li+1)*nR]
				f.snapNZ[li] = append(f.snapNZ[li][:0], ev.stateNZ[li]...)
				for _, r := range f.snapNZ[li] {
					snapRow[r] = row[r]
				}
				mrgRow := f.merged[li*nR : (li+1)*nR]
				for _, r := range f.mergedNZ[li] {
					mrgRow[r] = 0
				}
				f.mergedNZ[li] = f.mergedNZ[li][:0]
			}
			copy(f.saved[:nL], ev.lp[:nL])
			ev.setChildLp(f, nL)
		case opNext:
			f := &ev.frames[depth-1]
			for li := 0; li < nL; li++ {
				ev.maxMerge(f, li, nR)
				ev.restoreSnap(f, li, nR)
			}
			f.child++
			ev.setChildLp(f, nL)
		case opEnd:
			depth--
			f := &ev.frames[depth]
			for li := 0; li < nL; li++ {
				ev.maxMerge(f, li, nR)
				slices.Sort(f.mergedNZ[li])
				ev.concMerge(p, f, li, nR)
			}
			copy(ev.lp[:nL], f.saved[:nL])
		default:
			for li := 0; li < nL; li++ {
				mi := ev.evalBasic(p, in, li, nR)
				if basics != nil {
					basics[b*nL+li] = mi
				}
			}
			b++
		}
	}
}

// restoreSnap resets one level of the live state to the frame's entry
// snapshot (the next ⊙ child starts from the same state).
func (ev *evaluator) restoreSnap(f *frame, li, nR int) {
	row := ev.state[li*nR : (li+1)*nR]
	for _, r := range ev.stateNZ[li] {
		row[r] = 0
	}
	ev.stateNZ[li] = append(ev.stateNZ[li][:0], f.snapNZ[li]...)
	snapRow := f.snap[li*nR : (li+1)*nR]
	for _, r := range ev.stateNZ[li] {
		row[r] = snapRow[r]
	}
}

// footprints runs the footprint program once per level, filling one
// slot per ⊙ child with F(P) (Section 5.2). Footprints depend only on
// the level's line size, which cache division never changes, so they
// can be computed up front.
func (ev *evaluator) footprints(p *Program, nL int) {
	for li := 0; li < nL; li++ {
		b := ev.lp[li].B
		sp := 0
		stk := ev.footStk
		for i := range p.foot {
			fi := &p.foot[i]
			switch fi.Op {
			case fOne:
				stk[sp] = 1
				sp++
			case fLines:
				stk[sp] = costmath.LinesCovered(p.regions[fi.Reg].Size(), b)
				sp++
			case fRTrav:
				r := &p.regions[fi.Reg]
				if costmath.GapSmall(r.W, float64(fi.U), b) {
					stk[sp] = costmath.LinesCovered(r.Size(), b)
				} else {
					// Each line serves exactly one access; nothing is
					// revisited.
					stk[sp] = 1
				}
				sp++
			case fStore:
				ev.footVals[int(fi.N)*nL+li] = stk[sp-1]
			case fMax:
				k := int(fi.N)
				m := stk[sp-k]
				for j := sp - k + 1; j < sp; j++ {
					if stk[j] > m {
						m = stk[j]
					}
				}
				sp -= k - 1
				stk[sp-1] = m
			case fSum:
				k := int(fi.N)
				var s float64
				for j := sp - k; j < sp; j++ {
					s += stk[j]
				}
				sp -= k - 1
				stk[sp-1] = s
			}
		}
	}
}

// setChildLp applies Eq. 5.3's cache division for the frame's current
// child: each level's effective capacity and line count are scaled by
// the child's footprint share of the whole ⊙ group.
func (ev *evaluator) setChildLp(f *frame, nL int) {
	for li := 0; li < nL; li++ {
		var total float64
		for s := f.slot0; s < f.slot0+f.n; s++ {
			total += ev.footVals[int(s)*nL+li]
		}
		nu := 1.0
		if total > 0 {
			nu = ev.footVals[int(f.slot0+f.child)*nL+li] / total
		}
		if nu <= 0 {
			// Patterns with zero-share footprints (pure streams) still
			// stream through at least a line's worth of cache.
			nu = 1 / f.saved[li].L
		}
		ev.lp[li] = f.saved[li].Scaled(nu)
	}
}

// maxMerge folds one level of the current state (one finished ⊙ child)
// into the frame's merged accumulator: after ⊙ the cache holds a
// fraction of each region proportional to its pattern's share.
func (ev *evaluator) maxMerge(f *frame, li, nR int) {
	st := ev.state[li*nR : (li+1)*nR]
	mrg := f.merged[li*nR : (li+1)*nR]
	for _, r := range ev.stateNZ[li] {
		v := st[r]
		if mrg[r] == 0 {
			f.mergedNZ[li] = append(f.mergedNZ[li], r)
			mrg[r] = v
		} else if v > mrg[r] {
			mrg[r] = v
		}
	}
}

// evalBasic executes one basic-pattern instruction at one level:
// Eq. 5.1 state adjustment around the Section-4 cold count, miss
// accumulation, then the state merge. It returns the instruction's own
// misses.
func (ev *evaluator) evalBasic(p *Program, in *instr, li, nR int) Misses {
	lv := ev.lp[li]
	row := ev.state[li*nR : (li+1)*nR]
	reg := &p.regions[in.Reg]
	u := float64(in.U)
	size := reg.Size()
	rho, oldBytes := ev.scanRow(p, row, li, reg, size > 0)

	var mi Misses
	if rho < 1 {
		mi = coldMisses(in, lv, reg, u)
		if rho > 0 {
			if in.Op == opRAcc {
				if lines := costmath.RAccLines(lv, reg.N, reg.W, u, in.A); lines > lv.L {
					// r_acc over an oversized hot set: prior residency
					// only saves (part of) the compulsory first-touch
					// misses of the ℓ distinct lines.
					mi.Rnd -= rho * lines
					if mi.Rnd < 0 {
						mi.Rnd = 0
					}
				} else {
					mi = mi.Scale(1 - rho)
				}
			} else if isRandomOp(in) {
				// Eq. 5.1: each access finds its line resident with
				// probability rho.
				mi = mi.Scale(1 - rho)
			}
			// Sequential patterns get no benefit from an unknown
			// resident fraction (it would help only as the region head).
		}
	}
	ev.miss[li] = ev.miss[li].Add(mi)

	// Result state: the fraction of the region that fits the
	// (possibly scaled) cache, merged over what survives beside it.
	if size > 0 {
		rhoNew := lv.C / float64(size)
		if rhoNew > 1 {
			rhoNew = 1
		}
		ev.mergeBasic(p, row, li, lv, in.Reg, rhoNew, oldBytes)
	} else {
		ev.mergeEmpty(p, row, li, lv, oldBytes)
	}
	return mi
}

// scanRow makes evalBasic's one pass over a level's resident entries
// for the instruction's region reg. It returns rho, the effective
// resident fraction: the largest entry among reg and its ancestors (a
// resident parent implies resident sub-regions). With supersede — reg
// has bytes, so its result state replaces every entry overlapping it —
// the entries related to reg (same region, ancestor or descendant)
// leave the row here. oldBytes sums the resident bytes of the entries
// that stay, in ascending index order.
func (ev *evaluator) scanRow(p *Program, row []float64, li int, reg *RegionInfo, supersede bool) (rho, oldBytes float64) {
	lst := ev.stateNZ[li]
	out := lst[:0]
	for _, r := range lst {
		x := &p.regions[r]
		anc := x.contains(reg)
		if anc && row[r] > rho {
			rho = row[r]
		}
		if supersede && (anc || reg.contains(x)) {
			row[r] = 0
			continue
		}
		oldBytes += row[r] * float64(x.Size())
		out = append(out, r)
	}
	ev.stateNZ[li] = out
	return rho, oldBytes
}

// coldMisses dispatches a basic instruction to its Section-4 formula.
func coldMisses(in *instr, lv costmath.Level, reg *RegionInfo, u float64) Misses {
	switch in.Op {
	case opSTrav:
		return costmath.Classify(costmath.STravCount(lv, reg.N, reg.W, u), !in.NoSeq)
	case opRSTrav:
		m0 := costmath.STravCount(lv, reg.N, reg.W, u)
		return costmath.Classify(costmath.RSTravCount(lv, m0, in.A, in.Dir), !in.NoSeq)
	case opRTrav:
		return Misses{Rnd: costmath.RTravCount(lv, reg.N, reg.W, u)}
	case opRRTrav:
		m0 := costmath.RTravCount(lv, reg.N, reg.W, u)
		return Misses{Rnd: costmath.RRTravCount(lv, m0, in.A)}
	case opRAcc:
		return Misses{Rnd: costmath.RAccCount(lv, reg.N, reg.W, u, in.A)}
	case opNest:
		return costmath.NestCounts(lv, reg.N, reg.W, u, in.M, in.Inner, in.A, in.Order, in.NoSeq)
	}
	panic("costir: coldMisses on non-basic instruction")
}

// isRandomOp reports whether Eq. 5.1 grants the instruction partial
// benefit from a partially resident region.
func isRandomOp(in *instr) bool {
	switch in.Op {
	case opRTrav, opRRTrav, opRAcc:
		return true
	case opNest:
		return in.Inner != pattern.InnerSTrav
	}
	return false
}

// mergeBasic merges the single-region state a basic pattern leaves
// behind with the previous row contents, mirroring the tree walker's
// mergeState: earlier regions survive as long as the new resident
// bytes leave room, scaled down proportionally otherwise. scanRow has
// already removed the entries the new region supersedes and summed the
// rest into oldBytes.
func (ev *evaluator) mergeBasic(p *Program, row []float64, li int, lv costmath.Level, ri int32, rhoNew, oldBytes float64) {
	newBytes := rhoNew * float64(p.regions[ri].Size())
	avail := lv.C - newBytes
	if avail <= 0 || oldBytes <= 0 {
		ev.resetTo(row, li, ri, rhoNew)
		return
	}
	scale := 1.0
	if oldBytes > avail {
		scale = avail / oldBytes
	}
	lst := ev.stateNZ[li]
	out := lst[:0]
	for _, r := range lst {
		if g := row[r] * scale; g > 1e-9 {
			row[r] = g
			out = append(out, r)
		} else {
			row[r] = 0
		}
	}
	row[ri] = rhoNew
	i, _ := slices.BinarySearch(out, ri)
	out = append(out, 0)
	copy(out[i+1:], out[i:])
	out[i] = ri
	ev.stateNZ[li] = out
	ev.boundRow(p, row, li)
}

// resetTo empties one level's state and leaves only region ri resident.
func (ev *evaluator) resetTo(row []float64, li int, ri int32, rho float64) {
	for _, r := range ev.stateNZ[li] {
		row[r] = 0
	}
	row[ri] = rho
	ev.stateNZ[li] = append(ev.stateNZ[li][:0], ri)
}

// mergeEmpty merges an empty result state (a zero-size region leaves
// nothing behind): previous contents, oldBytes in all, are rescaled to
// the capacity.
func (ev *evaluator) mergeEmpty(p *Program, row []float64, li int, lv costmath.Level, oldBytes float64) {
	lst := ev.stateNZ[li]
	if oldBytes <= 0 {
		for _, r := range lst {
			row[r] = 0
		}
		ev.stateNZ[li] = lst[:0]
		return
	}
	scale := 1.0
	if oldBytes > lv.C {
		scale = lv.C / oldBytes
	}
	out := lst[:0]
	for _, r := range lst {
		if g := row[r] * scale; g > 1e-9 {
			row[r] = g
			out = append(out, r)
		} else {
			row[r] = 0
		}
	}
	ev.stateNZ[li] = out
	ev.boundRow(p, row, li)
}

// concMerge finishes one level of a ⊙ group: the max-merged child
// states supersede the entry state, and entry-state entries unrelated
// to any merged region survive in the room the merged bytes leave.
func (ev *evaluator) concMerge(p *Program, f *frame, li, nR int) {
	lv := f.saved[li]
	old := f.snap[li*nR : (li+1)*nR]
	mrg := f.merged[li*nR : (li+1)*nR]
	row := ev.state[li*nR : (li+1)*nR]

	// Replace the live state with the merged child states. mergedNZ is
	// sorted by the caller, so the newBytes sum visits regions in the
	// same ascending order a dense scan would.
	for _, r := range ev.stateNZ[li] {
		row[r] = 0
	}
	lst := ev.stateNZ[li][:0]
	var newBytes float64
	for _, r := range f.mergedNZ[li] {
		row[r] = mrg[r]
		lst = append(lst, r)
		newBytes += mrg[r] * float64(p.regions[r].Size())
	}
	ev.stateNZ[li] = lst

	avail := lv.C - newBytes
	if avail <= 0 {
		return
	}
	// An entry of the entry state survives only if it is unrelated to
	// every merged region. A merged entry is related to itself (its
	// merged value is non-zero); the few others — entries some child
	// superseded — are tested against the merged regions' intervals.
	// Survivors are appended after the merged entries, so relatedness
	// is decided once per entry.
	nMerged := len(lst)
	var oldBytes float64
	for _, r := range f.snapNZ[li] {
		x := &p.regions[r]
		if mrg[r] != 0 || relatedToAny(p, lst[:nMerged], x) {
			continue
		}
		oldBytes += old[r] * float64(x.Size())
		lst = append(lst, r)
	}
	if oldBytes <= 0 {
		return
	}
	scale := 1.0
	if oldBytes > avail {
		scale = avail / oldBytes
	}
	out := lst[:nMerged]
	for _, r := range lst[nMerged:] {
		if g := old[r] * scale; g > 1e-9 {
			row[r] = g
			out = append(out, r)
		}
	}
	if len(out) > nMerged {
		slices.Sort(out)
	}
	ev.stateNZ[li] = out
	ev.boundRow(p, row, li)
}

// relatedToAny reports whether x contains, or is contained in, one of
// the regions rs.
func relatedToAny(p *Program, rs []int32, x *RegionInfo) bool {
	for _, r := range rs {
		if y := &p.regions[r]; y.contains(x) || x.contains(y) {
			return true
		}
	}
	return false
}

// boundRow enforces maxStateEntries, keeping the entries with the most
// resident bytes (ties: region name, then index), exactly like the
// tree walker's boundState.
func (ev *evaluator) boundRow(p *Program, row []float64, li int) {
	lst := ev.stateNZ[li]
	k := len(lst) - maxStateEntries
	if k <= 0 {
		return
	}
	for _, r := range lst {
		ev.key[r] = row[r] * float64(p.regions[r].Size())
	}
	if k <= 4 {
		// The common case — a merge pushed the row a few entries over
		// the bound — drops the k lowest-ranked entries by linear scan
		// instead of sorting the whole row. The ranking's total order
		// (bytes desc, name asc, index asc) makes the dropped set
		// identical to the full sort's tail.
		for ; k > 0; k-- {
			worst := 0
			for i := 1; i < len(lst); i++ {
				if ev.dropsBefore(p, lst[worst], lst[i]) {
					worst = i
				}
			}
			row[lst[worst]] = 0
			lst = append(lst[:worst], lst[worst+1:]...)
		}
		ev.stateNZ[li] = lst
		return
	}
	idx := append(ev.bndIdx[:0], lst...)
	ev.sorter.idx = idx
	ev.sorter.key = ev.key
	ev.sorter.regs = p.regions
	sort.Sort(&ev.sorter)
	for _, r := range idx[maxStateEntries:] {
		row[r] = 0
	}
	kept := idx[:maxStateEntries]
	slices.Sort(kept)
	ev.stateNZ[li] = append(lst[:0], kept...)
}

// dropsBefore reports whether region b ranks below region a in the
// retention order (i.e. b is dropped before a): fewer resident bytes,
// ties by name descending, then index descending — the exact reverse
// of rowSorter's keep order.
func (ev *evaluator) dropsBefore(p *Program, a, b int32) bool {
	if ev.key[a] != ev.key[b] {
		return ev.key[b] < ev.key[a]
	}
	if p.regions[a].Name != p.regions[b].Name {
		return p.regions[b].Name > p.regions[a].Name
	}
	return b > a
}

// rowSorter orders region indices by resident bytes descending, then
// name ascending, then index — a deterministic refinement of the tree
// walker's ordering.
type rowSorter struct {
	idx  []int32
	key  []float64
	regs []RegionInfo
}

func (s *rowSorter) Len() int      { return len(s.idx) }
func (s *rowSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *rowSorter) Less(i, j int) bool {
	a, b := s.idx[i], s.idx[j]
	if s.key[a] != s.key[b] {
		return s.key[a] > s.key[b]
	}
	if s.regs[a].Name != s.regs[b].Name {
		return s.regs[a].Name < s.regs[b].Name
	}
	return a < b
}
