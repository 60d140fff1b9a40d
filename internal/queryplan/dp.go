package queryplan

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// The two-phase DP optimizer (phase 1 lives here). Phase 1 runs a
// dynamic program over the connected subgraphs of the join graph
// (DPccp-style, bushy trees allowed, cross-product-free): a memo table
// keyed by relation subset holds, per subset, the top-k subplans ranked
// by a context-free cost bound — every operator of the subplan priced
// in isolation against a cold cache, summed. The bound has to be
// context-free because the paper's Eq. 5.2 threads cache state through
// the ⊕ sequence, which makes a subplan's exact cost depend on
// everything that ran before it; pricing each operator as if it ran
// alone is the pruning metric, not the final answer. Phase 2
// (internal/planner) re-costs every surviving full plan exactly as the
// exhaustive path does — one ⊕-sequenced compound pattern,
// paper-faithful IR evaluation — so final rankings remain
// bit-compatible with the algebra.
//
// The memo is built for an optimizer's inner loop (docs/optimizer.md):
//
//   - Subplans live inline in per-subset buckets of plain structs (child
//     links are (subset, slot) indices, not pointers), each bucket kept
//     sorted and capped at top-k as candidates arrive; *Plan trees are
//     materialized only for the full set's survivors, so the memo
//     allocates O(subsets × k) structs instead of one heap node per
//     candidate.
//   - The memo itself is a dense table indexed by subset bitmask — no
//     hashing on the hot path.
//   - The cost bound is priced from interned operator-step geometries:
//     each primitive step (sort, merge, hash join, partition, …) is
//     lowered, compiled and cold-evaluated once per distinct geometry
//     and pricing environment in the process, and compound operators
//     price as sums of interned steps — a partitioned hash join prices
//     its m symmetric cluster joins as one interned eval, not m. Cache
//     keys are plain integers, hashed as memory.
//   - Phase 1 is parallelized across subset-size strata: every size-k
//     subset reads only finalized entries of sizes < k, so a bounded
//     worker pool per stratum is race-free by construction, and
//     per-subset insertion counters keep tie-breaking independent of
//     goroutine scheduling — results are bit-identical at every
//     Parallelism setting.
//
// docs/optimizer.md discusses why the bound is safe-ish and how the
// exhaustive oracle test bounds the risk.

// SearchStrategy selects the plan-space search engine.
type SearchStrategy string

const (
	// SearchDP is the memoized dynamic-programming search over
	// connected subgraphs (the default; handles up to MaxRelations).
	SearchDP SearchStrategy = "dp"
	// SearchExhaustive is the exhaustive left-deep enumerator — the
	// complete-but-factorial test oracle for small queries.
	SearchExhaustive SearchStrategy = "exhaustive"
)

// SearchOptions tune the plan-space search. The zero value means the
// DP search with DefaultTopK, bushy trees enabled, and one memo worker
// per available CPU.
type SearchOptions struct {
	// Strategy picks the engine; "" means SearchDP.
	Strategy SearchStrategy
	// TopK bounds the subplans kept per memo bucket in the DP search
	// (pruned by the context-free cost bound). 0 means DefaultTopK;
	// negative disables pruning entirely (every subplan survives — the
	// configuration the exhaustive-oracle parity test runs).
	TopK int
	// LeftDeepOnly restricts the DP search to left-deep join trees
	// (bushy off), matching the exhaustive enumerator's plan space.
	LeftDeepOnly bool
	// Parallelism bounds the worker pool that builds each subset-size
	// stratum of the DP memo. 0 means GOMAXPROCS, 1 runs
	// single-threaded, negative is clamped to 1. The search result is
	// bit-identical at every setting — tie-breaking never depends on
	// goroutine scheduling (see docs/optimizer.md).
	Parallelism int
}

// DefaultTopK is the per-bucket memo width used when TopK is 0.
const DefaultTopK = 3

// normalized resolves defaults; topK and parallelism return the
// effective knob values.
func (so SearchOptions) normalized() SearchOptions {
	if so.Strategy == "" {
		so.Strategy = SearchDP
	}
	return so
}

func (so SearchOptions) topK() int {
	switch {
	case so.TopK == 0:
		return DefaultTopK
	case so.TopK < 0:
		return math.MaxInt
	}
	return so.TopK
}

func (so SearchOptions) parallelism() int {
	if so.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if so.Parallelism < 1 {
		return 1
	}
	return so.Parallelism
}

// Search expands a query into physical plan trees with the configured
// strategy (opts.Search). SearchDP prices its pruning bounds on hier,
// which must be non-nil; SearchExhaustive ignores hier and delegates to
// Enumerate. Score the result with internal/planner.ScoreOn — that
// exact re-cost is phase 2 of the DP optimizer.
func Search(q Query, opts Options, hier *hardware.Hierarchy) ([]*Plan, error) {
	so := opts.Search.normalized()
	switch so.Strategy {
	case SearchExhaustive:
		return Enumerate(q, opts)
	case SearchDP:
		return dpSearch(q, opts, so, hier)
	default:
		return nil, fmt.Errorf("queryplan: unknown search strategy %q (want %q or %q)",
			so.Strategy, SearchDP, SearchExhaustive)
	}
}

// ---------------------------------------------------------------------
// Interned operator-step pricing (the context-free cost bound).

// stepKind discriminates the primitive operator steps the bound prices.
// Every step cost is the cold IR evaluation of the step's Table-2
// pattern plus nothing else; compound operators are priced as sums of
// steps.
type stepKind uint32

const (
	stepProject stepKind = iota // filtered/projecting scan: s_trav(U,u) ⊙ s_trav(W)
	stepSort                    // in-place quick-sort of one region
	stepMerge                   // merge join: three concurrent s_trav
	stepHash                    // hash join: build ⊕ probe (one unit, state threads inside)
	stepNLJ                     // nested-loop join
	stepPhj                     // whole partitioned hash join (partitions ⊕ clusters)
)

// stepKey is the geometry of one primitive step plus its pricing
// environment — everything its cold cost depends on, and the key of
// the process-global step cache. n3/w3 hold the output region where
// present; m holds the partition fan-out or the projection's
// bytes-used. Callers fill in the geometry; bounder.step stamps env.
// The layout is 64 bytes of integers with no padding, so map and
// sync.Map hash it as one block of memory.
type stepKey struct {
	kind           stepKind
	env            envID
	m              int64
	n1, w1, n2, w2 int64
	n3, w3         int64
}

// bounder prices the context-free cost bound: step costs interned by
// geometry across every search in the process (see stepCache),
// operator costs interned per search on top (a join operator's
// geometry includes sortedness and algorithm, which select its steps;
// see opTable). A bounder is immutable after newBounder, so every memo
// worker shares it; the values it computes are pure functions of their
// keys, so concurrent duplicate computation is benign and the cached
// values are scheduling-independent.
type bounder struct {
	hier  *hardware.Hierarchy
	prune int64
	cpu   CPUCosts

	// env names everything besides the step geometry that a step cost
	// depends on, making cached costs shareable across searches.
	env envID
}

// envKey is the pricing environment of a search: the hardware hierarchy
// (fingerprinted by its level parameters), the sort-recursion prune
// bound, and the CPU cost constants.
type envKey struct {
	hw    string
	prune int64
	cpu   CPUCosts
}

// envID is the small integer an envKey is interned to, so step-cache
// keys carry no string or float.
type envID uint32

// envIDs interns pricing environments process-wide. A serving process
// sees a handful (one per hardware profile and CPU setting), and each
// search looks its environment up once, in newBounder. Ids are never
// reused, so two environments never share a step-cache entry.
var (
	envMu  sync.Mutex
	envIDs = make(map[envKey]envID)
)

func internEnv(k envKey) envID {
	envMu.Lock()
	defer envMu.Unlock()
	id, ok := envIDs[k]
	if !ok {
		id = envID(len(envIDs))
		envIDs[k] = id
	}
	return id
}

// stepCache interns step costs process-wide, keyed by stepKey
// (environment id and geometry). A serving process prices a stream of
// queries against the same one or two hardware profiles, and distinct
// queries over one catalog share most operator geometries, so
// steady-state searches hit this table for nearly every bound. Entries
// are pure functions of their key (a cold IR evaluation), so sharing
// them across goroutines and searches cannot change any result. The
// count cap is a safety valve for adversarial geometry streams: past
// it, costs are computed uncached rather than evicted, keeping
// behavior simple and deterministic.
var (
	stepCache     sync.Map // stepKey -> float64
	stepCacheSize atomic.Int64
)

const maxStepCacheEntries = 1 << 20

// ResetStepCache empties the process-global step-cost cache. Cached
// entries are pure functions of their keys, so the only observable
// effect is timing — benchmarks call this to measure a cold search
// after earlier runs have already interned every geometry.
func ResetStepCache() {
	stepCache.Range(func(k, _ any) bool {
		stepCache.Delete(k)
		return true
	})
	stepCacheSize.Store(0)
}

// opKey is the geometry of one join operator — everything its bound
// (selected steps + CPU estimate) depends on. Like stepKey it is all
// integers with no padding (alg is 16 bits wide only to fill the last
// word), so the per-search table hashes it as plain memory.
type opKey struct {
	n1, w1, n2, w2   int64
	nOut, wOut       int64
	fanout           int32
	alg              int16 // index into joinAlgs
	sorted1, sorted2 bool
}

// opTable interns operator bounds within one search. Each memo worker
// owns one (dp.ops), so the hit path takes no lock; a bound two workers
// both compute is the same pure function of its key, so the duplicate
// cannot change a result. The table stays per search rather than
// process-wide: operator geometries include the query's intermediate
// cardinalities, so a process-wide table grows with every new query
// shape (docs/optimizer.md gives the heap it cost the serving
// benchmark).
type opTable map[opKey]float64

func newBounder(hier *hardware.Hierarchy, prune int64, cpu CPUCosts) *bounder {
	return &bounder{
		hier:  hier,
		prune: prune,
		cpu:   cpu,
		env:   internEnv(envKey{hw: hier.Fingerprint(), prune: prune, cpu: cpu}),
	}
}

// step returns the interned cold cost of one primitive step.
func (b *bounder) step(k stepKey) (float64, error) {
	k.env = b.env
	if c, ok := stepCache.Load(k); ok {
		return c.(float64), nil
	}
	prog, err := costir.Compile(b.stepPattern(k))
	if err != nil {
		return 0, err
	}
	c := prog.MemoryTimeNS(b.hier)
	if stepCacheSize.Load() < maxStepCacheEntries {
		if _, loaded := stepCache.LoadOrStore(k, c); !loaded {
			stepCacheSize.Add(1)
		}
	}
	return c, nil
}

// stepPattern builds the step's Table-2 pattern from its geometry.
// Region names are fixed placeholders: a step is always evaluated in
// isolation, so only geometry (and intra-step pointer identity, which
// the engine builders preserve) matters.
func (b *bounder) stepPattern(k stepKey) pattern.Pattern {
	switch k.kind {
	case stepProject:
		return engine.ProjectPattern(region.New("i", k.n1, k.w1), region.New("o", k.n3, k.w3), k.m)
	case stepSort:
		return engine.QuickSortPattern(region.New("s", k.n1, k.w1), b.prune)
	case stepMerge:
		return engine.MergeJoinPattern(
			region.New("l", k.n1, k.w1), region.New("r", k.n2, k.w2), region.New("o", k.n3, k.w3))
	case stepHash:
		// n1/w1 is the probe side, n2/w2 the build side (callers decide).
		build := region.New("b", k.n2, k.w2)
		return engine.HashJoinPattern(
			region.New("p", k.n1, k.w1), build, engine.HashRegionFor("h", build.N),
			region.New("o", k.n3, k.w3))
	case stepNLJ:
		return engine.NestedLoopJoinPattern(
			region.New("l", k.n1, k.w1), region.New("r", k.n2, k.w2), region.New("o", k.n3, k.w3))
	case stepPhj:
		// Priced as one whole pattern: the Seq state threading across
		// partition passes and clusters (resident-parent discounts,
		// steady-state cluster effects) shifts the cost by up to ~10%
		// in either direction versus a per-step sum, enough to reorder
		// survivors, so this is the one compound the bound cannot
		// decompose. Sortedness is irrelevant to its cost, so the
		// geometry key keeps one entry per (m, inputs, output).
		return engine.PartitionedHashJoinPattern(
			region.New("u", k.n1, k.w1), region.New("v", k.n2, k.w2),
			region.New("o", k.n3, k.w3), k.m)
	default:
		panic(fmt.Sprintf("queryplan: unknown step kind %d", k.kind))
	}
}

// joinBound prices one join operator in isolation: its primitive steps
// cold-evaluated (each interned by geometry) plus the
// hardware-independent CPU estimate — the additive, context-free
// decomposition that keeps phase 1 linear in distinct step geometries.
// The per-operator result is interned in the caller's table too, so
// the common case is one map hit.
func (b *bounder) joinBound(ops opTable, k opKey) (float64, error) {
	if c, ok := ops[k]; ok {
		return c, nil
	}
	mem, err := b.joinMem(k)
	if err != nil {
		return 0, err
	}
	c := mem + b.joinCPU(k)
	ops[k] = c
	return c, nil
}

// joinMem sums the operator's cold step costs, mirroring the step list
// Plan.Lower emits for the same node.
func (b *bounder) joinMem(k opKey) (float64, error) {
	switch k.alg {
	case algMJ:
		return b.step(stepKey{kind: stepMerge, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	case algSMJ:
		var sum float64
		if !k.sorted1 {
			c, err := b.step(stepKey{kind: stepSort, n1: k.n1, w1: k.w1})
			if err != nil {
				return 0, err
			}
			sum += c
		}
		if !k.sorted2 {
			c, err := b.step(stepKey{kind: stepSort, n1: k.n2, w1: k.w2})
			if err != nil {
				return 0, err
			}
			sum += c
		}
		c, err := b.step(stepKey{kind: stepMerge, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
		if err != nil {
			return 0, err
		}
		return sum + c, nil
	case algHJ:
		// Build on the smaller input, exactly as Plan.Lower does.
		np, wp, nb, wb := k.n1, k.w1, k.n2, k.w2
		if k.n1 < k.n2 {
			np, wp, nb, wb = k.n2, k.w2, k.n1, k.w1
		}
		return b.step(stepKey{kind: stepHash, n1: np, w1: wp, n2: nb, w2: wb, n3: k.nOut, w3: k.wOut})
	case algPHJ:
		return b.step(stepKey{kind: stepPhj, m: int64(k.fanout), n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	case algNLJ:
		return b.step(stepKey{kind: stepNLJ, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	default:
		return 0, fmt.Errorf("queryplan: unknown join algorithm index %d", k.alg)
	}
}

// joinCPU mirrors the lowerer's per-algorithm CPU estimates (Eq. 6.1's
// hardware-independent component).
func (b *bounder) joinCPU(k opKey) float64 {
	nl, nr, no := float64(k.n1), float64(k.n2), float64(k.nOut)
	switch k.alg {
	case algNLJ:
		return b.cpu.Compare*nl*nr + b.cpu.Move*no
	case algMJ:
		return b.cpu.Compare*(nl+nr) + b.cpu.Move*no
	case algSMJ:
		var cpu float64
		if !k.sorted1 {
			cpu += b.cpu.sortNS(nl)
		}
		if !k.sorted2 {
			cpu += b.cpu.sortNS(nr)
		}
		return cpu + b.cpu.Compare*(nl+nr) + b.cpu.Move*no
	case algHJ:
		return b.cpu.Hash*(nl+nr) + b.cpu.Move*no
	case algPHJ:
		return b.cpu.Partition*(nl+nr) + b.cpu.Hash*(nl+nr) + b.cpu.Move*no
	}
	return 0
}

// leafBound prices a scan leaf's own materialization step. A bare
// unfiltered scan contributes no step of its own (its consumer reads
// the base region directly), so it bounds to zero; a filtered or
// projecting scan is priced cold like any other step.
func (b *bounder) leafBound(leaf *Plan) (float64, error) {
	if leaf.Filter >= 1 && leaf.Proj <= 0 {
		return 0, nil
	}
	mem, err := b.step(stepKey{
		kind: stepProject, m: leaf.Proj,
		n1: leaf.Rel.Tuples, w1: leaf.Rel.Width,
		n3: leaf.Out.Tuples, w3: leaf.Out.Width,
	})
	if err != nil {
		return 0, err
	}
	return mem + b.cpu.Compare*float64(leaf.Rel.Tuples) + b.cpu.Move*float64(leaf.Out.Tuples), nil
}

// ---------------------------------------------------------------------
// The dense, arena-style memo.

// cand is one memoized subplan, stored inline in its subset's slab: the
// node payload (algorithm, child references, output geometry) plus its
// context-free bound and the per-subset insertion number that breaks
// bound ties deterministically. Child references point into finalized
// smaller subsets, so they stay valid while later inserts reorder this
// subset's buckets.
type cand struct {
	bound float64
	// seq is the subset-local insertion number — the deterministic
	// tie-break that keeps memo pruning and final ordering stable and
	// independent of which worker built which subset.
	seq         int32
	alg         int8 // index into joinAlgs; algLeaf for scan leaves
	fanout      int32
	left, right subRef
	outN, outW  int64
	outSorted   bool
	rel         int32 // relation index of a scan leaf
}

// algLeaf marks a scan-leaf candidate.
const algLeaf = int8(-1)

// The cand.alg / opKey.alg indices of the join algorithm inventory.
const (
	algMJ = iota
	algSMJ
	algHJ
	algPHJ
	algNLJ
)

// joinAlgs maps an algorithm index back to the algorithm inventory.
var joinAlgs = [...]Algorithm{
	algMJ: MergeJoin, algSMJ: SortMergeJoin, algHJ: HashJoin,
	algPHJ: PartitionedHashJoin, algNLJ: NestedLoopJoin,
}

// subRef addresses one candidate: the subset's bitmask plus a slot
// packing (bucket index, class) as idx*2 + class.
type subRef struct {
	mask uint32
	slot int32
}

// memoEntry holds one subset's surviving subplans, split by output
// order (the classic "interesting orders" refinement): a sorted-output
// subplan can lose on the context-free bound yet win the full query by
// feeding a downstream merge join, sort-aggregate or order-by for free,
// so each order class keeps its own top-k, sorted by (bound, seq) as it
// fills (see insert). ranked is the finalized merge of both classes,
// cheapest bound first — computed once when the subset's stratum
// completes, then read-only for every larger subset.
type memoEntry struct {
	buckets [2][]cand // [0] unsorted output, [1] sorted output
	ranked  []int32   // slots, cheapest (bound, seq) first
	seq     int32
}

func (m *memoEntry) at(slot int32) *cand { return &m.buckets[slot&1][slot>>1] }

// dp carries the state of one phase-1 run.
type dp struct {
	e    *enumerator
	b    *bounder
	topK int
	par  int
	full uint32
	// leftDeep restricts joins to a single relation on the right side.
	leftDeep bool
	// adj[i] is the bitmask of relations sharing a join edge with i.
	adj []uint32
	// ops[w] is memo worker w's operator-bound table (ops[0] on the
	// single-threaded path); see opTable.
	ops []opTable
	// memo[s] holds the surviving subplans for relation subset s — a
	// dense table indexed by bitmask, so only connected subsets ever
	// become non-empty: singletons are seeded directly, and a larger
	// subset gains plans only from a split into two non-empty (hence
	// connected) halves bridged by a join edge — connectivity propagates
	// inductively and cross products are never built.
	memo []memoEntry
}

// dpSearch is phase 1: build the memo bottom-up across subset-size
// strata (in parallel when allowed), then materialize the full set's
// survivors as *Plan trees and expand them with the aggregate /
// distinct / order-by variants exactly as the exhaustive enumerator
// does.
func dpSearch(q Query, opts Options, so SearchOptions, hier *hardware.Hierarchy) ([]*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("queryplan: DP search needs a hardware hierarchy to price its context-free cost bounds (pass one to Search, or use SearchExhaustive)")
	}
	opts = opts.normalized()
	e := enumerator{q: q, opts: opts}
	n := len(q.Relations)

	d := &dp{
		e:        &e,
		b:        newBounder(hier, opts.PruneBytes, opts.CPU),
		topK:     so.topK(),
		par:      so.parallelism(),
		full:     uint32(1)<<n - 1,
		leftDeep: so.LeftDeepOnly,
		adj:      adjacency(q),
		memo:     make([]memoEntry, uint32(1)<<n),
	}
	d.ops = make([]opTable, d.par)
	d.ops[0] = make(opTable)
	for i := 0; i < n; i++ {
		leaf := e.scanPlan(i)
		bound, err := d.b.leafBound(leaf)
		if err != nil {
			return nil, err
		}
		entry := &d.memo[uint32(1)<<i]
		entry.insert(cand{
			bound: bound, alg: algLeaf, rel: int32(i),
			outN: leaf.Out.Tuples, outW: leaf.Out.Width, outSorted: leaf.Out.Sorted,
		}, d.topK)
		entry.finalize(d.topK)
	}
	if err := d.runStrata(n); err != nil {
		return nil, err
	}

	plans := d.materialize()
	if q.GroupBy > 0 {
		plans = e.aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = e.aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = e.sortVariants(plans)
	}
	// A negative TopK is an explicit "give me everything" oracle run, so
	// the cap — a guard against unintentionally unbounded plan lists —
	// does not apply.
	if so.TopK >= 0 && len(plans) > opts.MaxPlans {
		return nil, fmt.Errorf("queryplan: %d candidate plans exceed the cap of %d (shrink TopK or raise Options.MaxPlans)",
			len(plans), opts.MaxPlans)
	}
	return plans, nil
}

// runStrata drives the dynamic program one subset size at a time. Every
// size-k subset reads only finalized entries of sizes < k and writes
// only its own memo slot, so the subsets of one stratum are independent
// — a bounded worker pool drains each stratum, with a plain atomic
// cursor handing out subsets. Determinism does not depend on the
// schedule: each subset's candidates, pruning and ranking are computed
// from finalized smaller strata and subset-local counters only.
func (d *dp) runStrata(n int) error {
	bySize := make([][]uint32, n+1)
	for s := uint32(3); s <= d.full; s++ {
		if k := bits.OnesCount32(s); k >= 2 {
			bySize[k] = append(bySize[k], s)
		}
	}
	for k := 2; k <= n; k++ {
		subs := bySize[k]
		workers := d.par
		if workers > len(subs) {
			workers = len(subs)
		}
		if workers <= 1 {
			for _, s := range subs {
				if err := d.buildSubset(s, d.ops[0]); err != nil {
					return err
				}
			}
			continue
		}
		var (
			next     atomic.Int64
			failed   atomic.Bool
			errOnce  sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			if d.ops[w] == nil {
				d.ops[w] = make(opTable)
			}
			wg.Add(1)
			go func(ops opTable) {
				defer wg.Done()
				for !failed.Load() {
					i := next.Add(1) - 1
					if i >= int64(len(subs)) {
						return
					}
					if err := d.buildSubset(subs[i], ops); err != nil {
						errOnce.Do(func() { firstErr = err })
						failed.Store(true)
						return
					}
				}
			}(d.ops[w])
		}
		wg.Wait()
		if failed.Load() {
			return firstErr
		}
	}
	return nil
}

// buildSubset fills memo[s] from every (S1, S2) split of s: both halves
// connected (non-empty memo), joined by at least one edge, every
// surviving subplan pair, every applicable join algorithm. Ordered
// pairs are enumerated with S1 ascending, which makes the left-deep
// restriction of the DP search visit extensions in the same relation
// order as the exhaustive enumerator.
func (d *dp) buildSubset(s uint32, ops opTable) error {
	entry := &d.memo[s]
	// (s1-s)&s enumerates the proper non-empty submasks of s in
	// ascending numeric order without allocating.
	for s1 := (0 - s) & s; s1 != s; s1 = (s1 - s) & s {
		s2 := s ^ s1
		if d.leftDeep && bits.OnesCount32(s2) != 1 {
			continue
		}
		e1, e2 := &d.memo[s1], &d.memo[s2]
		if len(e1.ranked) == 0 || len(e2.ranked) == 0 || !d.crossEdge(s1, s2) {
			continue
		}
		for _, sl1 := range e1.ranked {
			c1 := e1.at(sl1)
			r1 := subRef{mask: s1, slot: sl1}
			for _, sl2 := range e2.ranked {
				c2 := e2.at(sl2)
				outN, outW := d.pairGeometry(c1, c2, s1, s2)
				if err := d.addJoins(ops, entry, r1, c1, subRef{mask: s2, slot: sl2}, c2, outN, outW); err != nil {
					return err
				}
			}
		}
	}
	entry.finalize(d.topK)
	return nil
}

// addJoins files one join candidate per applicable algorithm — the same
// inventory, eligibility rules and emission order as the exhaustive
// enumerator's joinNodes.
func (d *dp) addJoins(ops opTable, entry *memoEntry, r1 subRef, c1 *cand, r2 subRef, c2 *cand, outN, outW int64) error {
	nl, nr := c1.outN, c2.outN
	childBound := c1.bound + c2.bound
	emit := func(alg int8, fanout int64, sorted bool) error {
		op, err := d.b.joinBound(ops, opKey{
			alg: int16(alg), fanout: int32(fanout),
			n1: nl, w1: c1.outW, sorted1: c1.outSorted,
			n2: nr, w2: c2.outW, sorted2: c2.outSorted,
			nOut: outN, wOut: outW,
		})
		if err != nil {
			return err
		}
		entry.insert(cand{
			bound: childBound + op,
			alg:   alg, fanout: int32(fanout),
			left: r1, right: r2,
			outN: outN, outW: outW, outSorted: sorted,
		}, d.topK)
		return nil
	}

	if c1.outSorted && c2.outSorted {
		// Both inputs already key-ordered: a sort-merge join would sort
		// nothing, so only the plain merge join is emitted.
		if err := emit(algMJ, 0, true); err != nil {
			return err
		}
	} else if err := emit(algSMJ, 0, true); err != nil {
		return err
	}
	if err := emit(algHJ, 0, false); err != nil {
		return err
	}
	for _, m := range d.e.opts.Fanouts {
		if m*8 > nl || m*8 > nr {
			continue // degenerate clusters
		}
		if err := emit(algPHJ, m, false); err != nil {
			return err
		}
	}
	if d.e.opts.NLJMaxInner > 0 && (nl <= d.e.opts.NLJMaxInner || nr <= d.e.opts.NLJMaxInner) {
		// The outer relation's order survives a nested-loop join.
		if err := emit(algNLJ, 0, c1.outSorted); err != nil {
			return err
		}
	}
	return nil
}

// pairGeometry estimates the output of joining two memoized subplans:
// cardinalities multiplied and scaled by every edge bridging the two
// subsets, widths concatenated minus the shared key — the set-split
// generalization of the exhaustive enumerator's joinOutput, and
// identical to it (including the per-step rounding cascade) on
// left-deep splits.
func (d *dp) pairGeometry(c1, c2 *cand, s1, s2 uint32) (outN, outW int64) {
	card := float64(c1.outN) * float64(c2.outN)
	for _, edge := range d.e.q.Joins {
		l, r := uint32(1)<<edge.Left, uint32(1)<<edge.Right
		if (l&s1 != 0 && r&s2 != 0) || (l&s2 != 0 && r&s1 != 0) {
			card *= edge.Selectivity
		}
	}
	width := c1.outW + c2.outW - engine.KeyWidth
	if width < engine.KeyWidth {
		width = engine.KeyWidth
	}
	return clampTuples(card), width
}

// insert files a candidate into its order-class bucket. With pruning
// on, each bucket stays sorted by (bound, seq) and holds at most topK
// entries: the candidate goes in after every entry with a bound ≤ its
// own (its seq is the newest, so it loses every tie) and is dropped if
// that position is ≥ topK. Online top-k selection is
// prefix-composable — an element dropped here already had k
// better-or-equal-and-earlier entries, which only ever get displaced by
// still better ones — so this keeps exactly the survivors of a stable
// sort of the whole stream cut to k, in memo memory O(subsets × k).
// Unpruned (the oracle configuration), the bucket is appended to and
// sorted once by finalize.
func (m *memoEntry) insert(c cand, topK int) {
	c.seq = m.seq
	m.seq++
	cls := 0
	if c.outSorted {
		cls = 1
	}
	b := m.buckets[cls]
	if topK >= math.MaxInt/2 {
		m.buckets[cls] = append(b, c)
		return
	}
	pos := sort.Search(len(b), func(i int) bool { return b[i].bound > c.bound })
	if pos >= topK {
		return
	}
	if len(b) < topK {
		if b == nil {
			b = make([]cand, 0, min(topK, maxBucketPrealloc))
		}
		b = append(b, cand{})
	}
	copy(b[pos+1:], b[pos:len(b)-1])
	b[pos] = c
	m.buckets[cls] = b
}

// maxBucketPrealloc caps a bucket's first allocation, so a huge TopK
// costs memory only as candidates actually arrive.
const maxBucketPrealloc = 16

// finalize computes the entry's cross-class ranking once, cheapest
// (bound, seq) first, by merging the two sorted buckets. After finalize
// the entry is read-only — every larger subset iterates the precomputed
// ranking instead of re-sorting per split.
func (m *memoEntry) finalize(topK int) {
	if topK >= math.MaxInt/2 {
		// Unpruned buckets arrive in insertion (seq) order; a stable
		// sort by bound leaves them in (bound, seq) order.
		for cls := range m.buckets {
			slices.SortStableFunc(m.buckets[cls], func(a, b cand) int {
				switch {
				case a.bound < b.bound:
					return -1
				case a.bound > b.bound:
					return 1
				}
				return 0
			})
		}
	}
	u, s := m.buckets[0], m.buckets[1]
	if len(u)+len(s) == 0 {
		return
	}
	m.ranked = make([]int32, 0, len(u)+len(s))
	i, j := 0, 0
	for i < len(u) && j < len(s) {
		if s[j].bound < u[i].bound || (s[j].bound == u[i].bound && s[j].seq < u[i].seq) {
			m.ranked = append(m.ranked, int32(j)<<1|1)
			j++
		} else {
			m.ranked = append(m.ranked, int32(i)<<1)
			i++
		}
	}
	for ; i < len(u); i++ {
		m.ranked = append(m.ranked, int32(i)<<1)
	}
	for ; j < len(s); j++ {
		m.ranked = append(m.ranked, int32(j)<<1|1)
	}
}

// materialize rebuilds *Plan trees for the full set's survivors — the
// only point where heap nodes are allocated. Shared subtrees are
// materialized once (the memo cache below), preserving the node sharing
// the pointer-based memo used to produce.
func (d *dp) materialize() []*Plan {
	ranked := d.memo[d.full].ranked
	cache := make(map[subRef]*Plan)
	plans := make([]*Plan, len(ranked))
	for i, slot := range ranked {
		plans[i] = d.materializeNode(subRef{mask: d.full, slot: slot}, cache)
	}
	return plans
}

func (d *dp) materializeNode(r subRef, cache map[subRef]*Plan) *Plan {
	if p, ok := cache[r]; ok {
		return p
	}
	c := d.memo[r.mask].at(r.slot)
	var p *Plan
	if c.alg == algLeaf {
		p = d.e.scanPlan(int(c.rel))
	} else {
		// Every join output is named by its relation subset. A subset
		// occurs at most once per plan tree, so the name is collision-free
		// within any plan a memoized subplan can end up in — essential
		// because the IR canonicalizer dedups regions by name and
		// geometry, and a bushy plan's disjoint subtrees (e.g. two
		// symmetric islands) routinely materialize same-sized
		// intermediates that must stay distinct regions. The exhaustive
		// enumerator's bare T%d names are safe only because left-deep
		// plans have one intermediate per size; costs are unaffected
		// either way (no collision under either scheme for left-deep
		// plans), which the parity harness locks.
		p = &Plan{
			Kind:      OpJoin,
			Algorithm: joinAlgs[c.alg],
			Fanout:    int64(c.fanout),
			Children:  []*Plan{d.materializeNode(c.left, cache), d.materializeNode(c.right, cache)},
			Out: Relation{
				Name:   fmt.Sprintf("T%d.%x", bits.OnesCount32(r.mask)-1, r.mask),
				Tuples: c.outN, Width: c.outW, Sorted: c.outSorted,
			},
		}
	}
	cache[r] = p
	return p
}

// adjacency builds the per-relation neighbour bitmasks.
func adjacency(q Query) []uint32 {
	adj := make([]uint32, len(q.Relations))
	for _, e := range q.Joins {
		adj[e.Left] |= uint32(1) << e.Right
		adj[e.Right] |= uint32(1) << e.Left
	}
	return adj
}

// crossEdge reports whether any join edge bridges the two halves.
func (d *dp) crossEdge(s1, s2 uint32) bool {
	for f := s1; f != 0; f &= f - 1 {
		if d.adj[bits.TrailingZeros32(f)]&s2 != 0 {
			return true
		}
	}
	return false
}
