package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// Request generation. Every workload's request sequence is a pure
// function of (workload, seed): request i draws from its own PCG stream
// keyed by (seed, workload, i), and the pools the requests draw from
// are built the same way. The server sees only the generated requests.

// planProfile is the hardware profile every plan request prices on.
const planProfile = "modern-x86"

// evalProfiles are the built-in profiles evaluate-batch spreads over.
var evalProfiles = []string{"modern-x86", "origin2000", "small-test"}

// Workload sizes, stated against the server's own caches (plan 512,
// compile 1024, result 4096 entries).
const (
	spellingsPerShape = 8     // plan-hit: catalog spelling + 7 isomorphs
	evalPoolKeys      = 16384 // evaluate-batch: distinct result keys, 4x the result cache (programs: 5x the compile cache)
	evalBatch         = 64    // evaluate-batch: requests per batch
	evalBatchDups     = 16    // evaluate-batch: in-batch duplicates per batch
	evalWarmBatches   = 16    // evaluate-batch: set-up batches, a quarter of the result cache
	driftFrac         = 0.02  // plan-drift: maximum relative cardinality drift
)

// hitShapes are the pre-searched shapes of plan-hit and plan-drift.
var hitShapes = []string{
	"join2-fk", "join3-star", "join4-chain", "join7-star",
	"join8-chain", "distinct-dense", "join5-cycle", "groupby-few",
}

// bigDriftShapes are plan-drift's phase-2-bound scenarios.
var bigDriftShapes = []string{"join2-large", "join3-chain-q3"}

// driftWeights is plan-drift's mix: how many times each shape is sent
// per block of requests. join2-fk is doubled so the median latency
// falls inside one shape's revalidation times, not on the edge
// between two.
var driftWeights = map[string]int{
	"join2-large": 1, "join3-chain-q3": 1,
	"join2-fk": 8, "join3-star": 4, "join4-chain": 4, "join7-star": 4,
	"join8-chain": 4, "distinct-dense": 4, "join5-cycle": 4, "groupby-few": 4,
}

// request is one generated request: a plan request or an evaluate
// batch. ref names the request's reference answer; requests with equal
// non-negative refs share one (see check.go), -1 means the reference is
// computed per request.
type request struct {
	plan  *server.PlanRequest
	batch *server.BatchRequest
	ref   int
	// itemRefs are the evaluate-batch pool members, one per batch item.
	itemRefs []int
}

// workload is one named traffic mix.
type workload struct {
	name string
	// cfg configures the server under test.
	cfg server.Config
	// warm lists the set-up requests (plan-cache prefill, step-cache
	// warm-up) sent before timing starts.
	warm []request
	// at returns the i-th timed request.
	at func(i int) request
}

func salt(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// deck spreads a fixed mix over a sequence: it returns, for item i, a
// value in [0, size) such that each aligned block of size items takes
// every value once, in a seeded order. The seed then changes the order
// and the drawn parameters of a run's requests but not its mix, so it
// does not move the figures by itself.
func deck(seed uint64, name string, i, size int) int {
	return stream(seed, name+"/deck", i/size).Perm(size)[i%size]
}

// stream returns the PCG stream for item i of a named sequence.
func stream(seed uint64, name string, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed^salt(name), uint64(i)))
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"plan-hit", "plan-drift", "plan-search", "evaluate-batch"}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "plan-hit":
		return planHit(seed)
	case "plan-drift":
		return planDrift(seed)
	case "plan-search":
		return planSearch(seed)
	case "evaluate-batch":
		return evaluateBatch(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func catalogQuery(name string) (scenario.Query, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return scenario.Query{}, fmt.Errorf("catalog has no scenario %q", name)
	}
	return sc.Query, nil
}

func catalogRequests(names []string) []request {
	out := make([]request, len(names))
	for i, n := range names {
		out[i] = request{plan: &server.PlanRequest{Profile: planProfile, Scenario: n}, ref: -1}
	}
	return out
}

// planHit: exact catalog spellings and renamed/reordered inline
// isomorphs of the pre-searched shapes, no parameter drift.
func planHit(seed uint64) (*workload, error) {
	spell := make([][]request, len(hitShapes))
	for s, name := range hitShapes {
		q, err := catalogQuery(name)
		if err != nil {
			return nil, err
		}
		spell[s] = make([]request, spellingsPerShape)
		spell[s][0] = request{plan: &server.PlanRequest{Profile: planProfile, Scenario: name}}
		for j := 1; j < spellingsPerShape; j++ {
			rng := stream(seed, "plan-hit/spelling/"+name, j)
			// Odd spellings keep the catalog names (pure hit), even
			// ones rename every relation (the recipe re-render path).
			spell[s][j] = request{plan: &server.PlanRequest{Profile: planProfile, Query: isomorph(q, rng, j%2 == 0, fmt.Sprintf("s%d", j))}}
		}
		for j := range spell[s] {
			spell[s][j].ref = s*spellingsPerShape + j
		}
	}
	return &workload{
		name: "plan-hit",
		warm: catalogRequests(hitShapes),
		// Every block of len(hitShapes)*spellingsPerShape requests
		// sends each spelling of each shape once, in seeded order.
		at: func(i int) request {
			j := deck(seed, "plan-hit", i, len(hitShapes)*spellingsPerShape)
			return spell[j/spellingsPerShape][j%spellingsPerShape]
		},
	}, nil
}

// planDrift: inline spellings of the pre-searched shapes plus the two
// phase-2-bound scenarios, every one with a fresh ±2% cardinality drift.
func planDrift(seed uint64) (*workload, error) {
	names := append(append([]string(nil), hitShapes...), bigDriftShapes...)
	var mix []string
	for _, n := range names {
		for range driftWeights[n] {
			mix = append(mix, n)
		}
	}
	base := make(map[string]scenario.Query, len(names))
	for _, n := range names {
		q, err := catalogQuery(n)
		if err != nil {
			return nil, err
		}
		base[n] = q
	}
	return &workload{
		name: "plan-drift",
		warm: catalogRequests(names),
		// Every block of len(mix) requests sends the mix once.
		at: func(i int) request {
			name := mix[deck(seed, "plan-drift", i, len(mix))]
			rng := stream(seed, "plan-drift", i)
			q := drift(base[name], rng)
			return request{plan: &server.PlanRequest{Profile: planProfile, Query: isomorph(q, rng, false, "")}, ref: -1}
		},
	}, nil
}

// drift scales every relation's cardinality by a factor in
// [1-driftFrac, 1+driftFrac], making sure at least one changes.
func drift(q scenario.Query, rng *rand.Rand) scenario.Query {
	q.Relations = append([]scenario.Relation(nil), q.Relations...)
	changed := false
	for k := range q.Relations {
		r := &q.Relations[k]
		t := int64(math.Round(float64(r.Tuples) * (1 + driftFrac*(2*rng.Float64()-1))))
		changed = changed || t != r.Tuples
		r.Tuples = t
	}
	if !changed {
		q.Relations[0].Tuples++
	}
	return q
}

// searchMix is plan-search's mix: per block of requests, how many
// draw from each base shape's pool, and each pool's size. The 12-chain
// dominates so the median latency falls inside its search times.
var searchMix = []struct {
	base        string
	weight, max int
}{
	{"join4-chain", 1, 64},
	{"join5-cycle", 1, 64},
	{"join8-chain", 2, 384},
	{"join12-chain", 12, 1536},
}

// searchPlanCache is plan-search's server.Config.PlanCacheSize: a
// quarter of the default, so the ~2000-shape mix overflows it within
// the first seconds of a run and the run measures the steady state of
// misses, inserts and evictions rather than the cache filling up.
const searchPlanCache = server.DefaultPlanCacheSize / 4

// planSearch: pools of distinct shapes over fifteen times the plan
// cache, so most requests miss and run a full search.
func planSearch(seed uint64) (*workload, error) {
	pools := make([][]*server.PlanQuery, len(searchMix))
	var deckOf []int // deck slot -> base
	var warm []string
	for b, m := range searchMix {
		pool, err := searchPool(seed, m.base, m.max)
		if err != nil {
			return nil, err
		}
		pools[b] = pool
		for range m.weight {
			deckOf = append(deckOf, b)
		}
		warm = append(warm, m.base)
	}
	return &workload{
		name: "plan-search",
		cfg:  server.Config{PlanCacheSize: searchPlanCache},
		warm: catalogRequests(warm),
		at: func(i int) request {
			b := deckOf[deck(seed, "plan-search", i, len(deckOf))]
			m := stream(seed, "plan-search", i).IntN(len(pools[b]))
			return request{plan: &server.PlanRequest{Profile: planProfile, Query: pools[b][m]}, ref: b<<16 | m}
		},
	}, nil
}

// searchPool builds up to max queries of pairwise distinct shape
// fingerprints from a catalog base shape, with seeded sorted-input
// flags and query-level operators. Cardinalities stay the catalog's, so
// members share subplan geometries and the DP step cache stays warm
// (filters or projections would make most searches price cold
// geometries). Small bases have fewer than max variants; the pool stops
// once new draws keep repeating shapes.
func searchPool(seed uint64, name string, max int) ([]*server.PlanQuery, error) {
	base, err := catalogQuery(name)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, max)
	var pool []*server.PlanQuery
	for m, repeats := 0, 0; len(pool) < max && repeats < 1000; m++ {
		rng := stream(seed, "plan-search/pool/"+name, m)
		q := base
		q.Relations = append([]scenario.Relation(nil), q.Relations...)
		for k := range q.Relations {
			q.Relations[k].Sorted = rng.IntN(2) == 0
		}
		// Group-by and distinct exclude each other; either combines
		// with an order-by.
		q.GroupBy, q.Distinct = 0, 0
		switch rng.IntN(3) {
		case 1:
			q.GroupBy = 1000
		case 2:
			q.Distinct = 1000
		}
		q.SortBy = rng.IntN(2) == 0
		fp, err := scenario.FingerprintQuery(q)
		if err != nil {
			return nil, fmt.Errorf("plan-search pool %s member %d: %w", name, m, err)
		}
		if seen[fp.Key] {
			repeats++
			continue
		}
		seen[fp.Key], repeats = true, 0
		pool = append(pool, wireQuery(q))
	}
	return pool, nil
}

// isomorph spells q as an inline query with its relations in a seeded
// order and its join edges shuffled and flipped; rename prefixes every
// relation name with tag.
func isomorph(q scenario.Query, rng *rand.Rand, rename bool, tag string) *server.PlanQuery {
	n := len(q.Relations)
	perm := rng.Perm(n) // new position k holds old relation perm[k]
	inv := make([]int, n)
	for k, old := range perm {
		inv[old] = k
	}
	out := scenario.Query{GroupBy: q.GroupBy, Distinct: q.Distinct, SortBy: q.SortBy}
	for _, old := range perm {
		r := q.Relations[old]
		if rename {
			r.Name = tag + "_" + r.Name
		}
		out.Relations = append(out.Relations, r)
		if q.Filters != nil {
			out.Filters = append(out.Filters, q.Filters[old])
		}
		if q.Projections != nil {
			out.Projections = append(out.Projections, q.Projections[old])
		}
	}
	for _, e := range q.Joins {
		l, r := inv[e.Left], inv[e.Right]
		if rng.IntN(2) == 0 {
			l, r = r, l
		}
		out.Joins = append(out.Joins, scenario.JoinEdge{Left: l, Right: r, Selectivity: e.Selectivity})
	}
	rng.Shuffle(len(out.Joins), func(a, b int) { out.Joins[a], out.Joins[b] = out.Joins[b], out.Joins[a] })
	return wireQuery(out)
}

func wireQuery(q scenario.Query) *server.PlanQuery {
	pq := &server.PlanQuery{
		Filters:     q.Filters,
		Projections: q.Projections,
		GroupBy:     q.GroupBy,
		Distinct:    q.Distinct,
		SortBy:      q.SortBy,
	}
	for _, r := range q.Relations {
		pq.Relations = append(pq.Relations, server.PlanRelation{Name: r.Name, Tuples: r.Tuples, Width: r.Width, Sorted: r.Sorted})
	}
	for _, j := range q.Joins {
		pq.Joins = append(pq.Joins, server.PlanJoin{Left: j.Left, Right: j.Right, Selectivity: j.Selectivity})
	}
	return pq
}

// evaluateBatch: batches of Table-2 patterns drawn from a distinct-key
// pool four times the result cache, with in-batch duplicates spelled
// differently and carrying their own CPU estimates.
func evaluateBatch(seed uint64) *workload {
	// Set-up batches, drawn from a stream of their own, warm the
	// result and compile caches before timing.
	warm := make([]request, evalWarmBatches)
	for i := range warm {
		warm[i] = evalBatchAt(seed, "evaluate-batch/warm", i)
	}
	return &workload{
		name: "evaluate-batch",
		warm: warm,
		at: func(i int) request {
			return evalBatchAt(seed, "evaluate-batch", i)
		},
	}
}

func evalBatchAt(seed uint64, name string, i int) request {
	rng := stream(seed, name, i)
	reqs := make([]server.EvalRequest, 0, evalBatch)
	refs := make([]int, 0, evalBatch)
	for len(reqs) < evalBatch-evalBatchDups {
		m := rng.IntN(evalPoolKeys)
		reqs = append(reqs, evalItem(seed, m, rng.Uint64()))
		refs = append(refs, m)
	}
	for len(reqs) < evalBatch {
		k := rng.IntN(evalBatch - evalBatchDups)
		reqs = append(reqs, evalItem(seed, refs[k], rng.Uint64()))
		refs = append(refs, refs[k])
	}
	// Interleave duplicates with their leaders.
	order := rng.Perm(len(reqs))
	batch := &server.BatchRequest{Requests: make([]server.EvalRequest, len(reqs))}
	itemRefs := make([]int, len(reqs))
	for k, o := range order {
		batch.Requests[k], itemRefs[k] = reqs[o], refs[o]
	}
	return request{batch: batch, ref: -1, itemRefs: itemRefs}
}

// The evaluate-batch pattern families (the paper's Table 2 operators).
const (
	famScan = iota
	famMergeJoin
	famHashJoin
	famPartition
	famNestedLoop
	famPartitionedHashJoin
	numFamilies
)

// evalItem renders pool member m as an evaluation request. The member
// fixes family and region geometry (its compiled program, shared by
// the members m/3*3 .. m/3*3+2) and profile (with the program, its
// result-cache key); spelling picks the operand order of every ⊙ term
// and the CPU estimate, which change the request but not the key.
func evalItem(seed uint64, m int, spelling uint64) server.EvalRequest {
	rng := stream(seed, "evaluate-batch/pool", m/len(evalProfiles))
	sp := rand.New(rand.NewPCG(spelling, uint64(m)))
	profile := evalProfiles[m%len(evalProfiles)]
	fam := rng.IntN(numFamilies)
	widths := []int64{8, 16, 32, 64}
	// region draws a region whose size is log-uniform in [8 KB, 256 MB].
	region := func(name string) server.RegionDecl {
		w := widths[rng.IntN(len(widths))]
		bytes := math.Exp(math.Log(8<<10) + rng.Float64()*(math.Log(256<<20)-math.Log(8<<10)))
		return server.RegionDecl{Name: name, Items: int64(bytes) / w, Width: w}
	}
	conc := func(terms ...string) string {
		sp.Shuffle(len(terms), func(a, b int) { terms[a], terms[b] = terms[b], terms[a] })
		out := terms[0]
		for _, t := range terms[1:] {
			out += " (.) " + t
		}
		return out
	}
	out := func(u, v server.RegionDecl) server.RegionDecl {
		return server.RegionDecl{Name: "W", Items: min(u.Items, v.Items), Width: u.Width + v.Width}
	}
	fanout := []int64{16, 64, 256, 1024}[rng.IntN(4)]
	var regions []server.RegionDecl
	var pat string
	switch fam {
	case famScan:
		u := region("U")
		regions = []server.RegionDecl{u}
		pat = "s_trav(U)"
	case famMergeJoin:
		u, v := region("U"), region("V")
		regions = []server.RegionDecl{u, v, out(u, v)}
		pat = conc("s_trav(U)", "s_trav(V)", "s_trav(W)")
	case famHashJoin:
		u, v := region("U"), region("V")
		h := server.RegionDecl{Name: "H", Items: v.Items, Width: 16}
		regions = []server.RegionDecl{u, v, h, out(u, v)}
		pat = "[" + conc("s_trav(V)", "r_trav(H)") + "] (+) [" +
			conc("s_trav(U)", fmt.Sprintf("r_acc(%d, H)", u.Items), "s_trav(W)") + "]"
	case famPartition:
		u := region("U")
		regions = []server.RegionDecl{u, {Name: "X", Items: u.Items, Width: u.Width}}
		pat = conc("s_trav(U)", fmt.Sprintf("nest(X, %d, s_trav(X_j), rnd)", fanout))
	case famNestedLoop:
		// The outer side stays small (16..1024 tuples): the inner
		// traversal repeats once per outer tuple.
		u := server.RegionDecl{Name: "U", Items: 16 << rng.IntN(7), Width: widths[rng.IntN(len(widths))]}
		v := region("V")
		regions = []server.RegionDecl{u, v, out(u, v)}
		pat = conc("s_trav(U)", fmt.Sprintf("rs_trav(%d, uni, V)", u.Items), "s_trav(W)")
	case famPartitionedHashJoin:
		u, v := region("U"), region("V")
		x := server.RegionDecl{Name: "X", Items: u.Items, Width: u.Width}
		y := server.RegionDecl{Name: "Y", Items: v.Items, Width: v.Width}
		h := server.RegionDecl{Name: "H", Items: max(v.Items/fanout, 1), Width: 16}
		regions = []server.RegionDecl{u, v, x, y, h, out(u, v)}
		pat = "[" + conc("s_trav(U)", fmt.Sprintf("nest(X, %d, s_trav(X_j), rnd)", fanout)) + "] (+) [" +
			conc("s_trav(V)", fmt.Sprintf("nest(Y, %d, s_trav(Y_j), rnd)", fanout)) + "] (+) [" +
			conc("s_trav(Y)", "r_trav(H)") + "] (+) [" +
			conc("s_trav(X)", fmt.Sprintf("r_acc(%d, H)", x.Items), "s_trav(W)") + "]"
	}
	sort.Slice(regions, func(a, b int) bool { return regions[a].Name < regions[b].Name })
	return server.EvalRequest{
		Profile: profile,
		Regions: regions,
		Pattern: pat,
		CPUNS:   float64(sp.IntN(1_000_000)),
	}
}
