package main

import (
	"container/list"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/costir"
	"repro/internal/queryplan"
	"repro/pkg/costmodel"
	"repro/pkg/costmodel/server"
)

// mirror re-runs the server's serving paths by calling the public
// function of each layer in the order the server does — fingerprint,
// plan-cache lookup, recipe bind, re-score or DP search, lowering,
// canonicalization, compilation, IR evaluation, recipe extraction; or
// parse, canonicalize, dedup, result and compile caches, evaluation —
// with caches of the server's sizes. It serves as the correctness
// reference (tracer nil) and as the traced replay (spans around every
// layer call). Its answers must equal the server's bit for bit.
type mirror struct {
	tr     *tracer
	req    int32 // request id of the spans being recorded
	parent int32 // enclosing span id

	// readOnly keeps searches out of the plan cache (references that
	// share caches across goroutines must not change them).
	readOnly bool

	*mirrorCaches

	// Work counters.
	searchPlans   int64
	compileInstrs int64
	evalInstrs    int64
}

// mirrorCaches are shareable between mirrors on different goroutines.
type mirrorCaches struct {
	plans    *lru[*planEntry]
	results  *lru[float64]
	compiled *lru[*costir.Program]
}

// newMirrorCaches returns caches of the sizes the workload's server
// uses.
func newMirrorCaches(w *workload) *mirrorCaches {
	plans := w.cfg.PlanCacheSize
	if plans == 0 {
		plans = server.DefaultPlanCacheSize
	}
	return &mirrorCaches{
		plans:    newLRU[*planEntry](plans),
		results:  newLRU[float64](server.DefaultCacheSize),
		compiled: newLRU[*costir.Program](server.DefaultCompileCacheSize),
	}
}

// planEntry mirrors the server's cached plan-search result.
type planEntry struct {
	params  []float64
	names   []string
	plans   int
	ranking []server.RankedPlan
	recipes []*queryplan.Recipe
}

// searchOptions is the normalized default search the server keys on.
var searchOptions = queryplan.SearchOptions{Strategy: queryplan.SearchDP, TopK: queryplan.DefaultTopK}

// revalidateTopK mirrors the server's re-scored recipe count.
const revalidateTopK = 5

// enter opens a span named name under the current parent and returns
// the function that closes it.
func (m *mirror) enter(name string) func() {
	if m.tr == nil {
		return func() {}
	}
	id := m.tr.begin(name, m.req, m.parent)
	prev := m.parent
	m.parent = id
	return func() {
		m.tr.end(id)
		m.parent = prev
	}
}

func (m *mirror) serve(r request) (reply, error) {
	if r.batch != nil {
		return m.batch(r.batch.Requests)
	}
	return m.plan(r.plan)
}

func resolveQuery(req *server.PlanRequest) (queryplan.Query, error) {
	if req.Scenario != "" {
		sc, ok := queryplan.ScenarioByName(req.Scenario)
		if !ok {
			return queryplan.Query{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return sc.Query, nil
	}
	pq := req.Query
	q := queryplan.Query{Filters: pq.Filters, Projections: pq.Projections, GroupBy: pq.GroupBy, Distinct: pq.Distinct, SortBy: pq.SortBy}
	for _, r := range pq.Relations {
		q.Relations = append(q.Relations, queryplan.Relation{Name: r.Name, Tuples: r.Tuples, Width: r.Width, Sorted: r.Sorted})
	}
	for _, j := range pq.Joins {
		q.Joins = append(q.Joins, queryplan.JoinEdge{Left: j.Left, Right: j.Right, Selectivity: j.Selectivity})
	}
	return q, nil
}

// plan mirrors Server.Plan.
func (m *mirror) plan(req *server.PlanRequest) (reply, error) {
	q, fp, names, err := m.resolve(req)
	if err != nil {
		return reply{}, err
	}
	key := req.Profile + "|" + fp.Key
	if e, ok := m.plans.get(key); ok {
		rep, ok, err := m.fromEntry(req, e, q, fp, names)
		if ok || err != nil {
			return rep, err
		}
	}
	e, rep, err := m.search(req, q, fp, names)
	if err == nil && !m.readOnly {
		m.plans.put(key, e)
	}
	return rep, err
}

// resolve turns a request into its query, fingerprint and relation
// names in canonical order.
func (m *mirror) resolve(req *server.PlanRequest) (queryplan.Query, queryplan.Fingerprint, []string, error) {
	q, err := resolveQuery(req)
	if err != nil {
		return q, queryplan.Fingerprint{}, nil, err
	}
	done := m.enter("queryplan.fingerprint")
	fp, err := q.Fingerprint()
	done()
	if err != nil {
		return q, fp, nil, err
	}
	names := make([]string, len(fp.Perm))
	for pos, i := range fp.Perm {
		names[pos] = q.Relations[i].Name
	}
	return q, fp, names, nil
}

// cacheKey is the request's plan-cache identity.
func cacheKey(req *server.PlanRequest) (string, error) {
	_, fp, _, err := (&mirror{}).resolve(req)
	return req.Profile + "|" + fp.Key, err
}

// entry runs the full search for a request: the plan-cache entry it
// leaves and the answer.
func (m *mirror) entry(req *server.PlanRequest) (*planEntry, reply, error) {
	q, fp, names, err := m.resolve(req)
	if err != nil {
		return nil, reply{}, err
	}
	return m.search(req, q, fp, names)
}

// revalidate answers a request from a given cache entry; held is false
// when the server would fall back to a full search.
func (m *mirror) revalidate(req *server.PlanRequest, e *planEntry) (rep reply, held bool, err error) {
	q, fp, names, err := m.resolve(req)
	if err != nil {
		return reply{}, false, err
	}
	return m.fromEntry(req, e, q, fp, names)
}

// fromEntry mirrors the server's pure-hit, renamed-hit and drift
// revalidation paths; ok false means a full search must run.
func (m *mirror) fromEntry(req *server.PlanRequest, e *planEntry, q queryplan.Query, fp queryplan.Fingerprint, names []string) (rep reply, ok bool, err error) {
	if equalBits(e.params, fp.Params) {
		if slices.Equal(e.names, names) {
			return finish(servedCache, e.plans, e.ranking), true, nil
		}
		ranking := append([]server.RankedPlan(nil), e.ranking...)
		for i := range ranking {
			bound, err := m.bind(e.recipes[i], q, fp)
			if err != nil {
				return reply{}, false, nil
			}
			ranking[i].Plan = bound.Signature()
		}
		return finish(servedCache, e.plans, ranking), true, nil
	}
	h, err := costmodel.Profile(req.Profile)
	if err != nil {
		return reply{}, false, err
	}
	n := min(len(e.recipes), revalidateTopK)
	trees := make([]*queryplan.Plan, n)
	for i := range n {
		if trees[i], err = m.bind(e.recipes[i], q, fp); err != nil {
			return reply{}, false, nil
		}
	}
	rescored, err := m.rescore(h, trees)
	if err != nil {
		return reply{}, false, nil
	}
	for _, p := range rescored[1:] {
		if p.TotalNS < rescored[0].TotalNS {
			return reply{}, false, nil
		}
	}
	sort.SliceStable(rescored, func(i, j int) bool { return rescored[i].TotalNS < rescored[j].TotalNS })
	return finish(servedRevalidated, e.plans, rescored), true, nil
}

func (m *mirror) bind(r *queryplan.Recipe, q queryplan.Query, fp queryplan.Fingerprint) (*queryplan.Plan, error) {
	defer m.enter("queryplan.bind")()
	return r.Bind(q, fp)
}

// rescore mirrors planner.ScoreQueryPlans: lower, compile and evaluate
// each tree in input order.
func (m *mirror) rescore(h *costmodel.Hierarchy, trees []*queryplan.Plan) ([]server.RankedPlan, error) {
	defer m.enter("planner.rescore")()
	cpu, prune := queryplan.DefaultCPU(), minCapacity(h)
	out := make([]server.RankedPlan, len(trees))
	for i, t := range trees {
		done := m.enter("queryplan.lower")
		pat, cpuNS, err := t.Lower(cpu, prune)
		done()
		if err != nil {
			return nil, err
		}
		prog, err := m.compile(pat)
		if err != nil {
			return nil, err
		}
		out[i] = ranked(t.Signature(), m.eval(prog, h), cpuNS)
	}
	return out, nil
}

func ranked(sig string, memNS, cpuNS float64) server.RankedPlan {
	return server.RankedPlan{Plan: sig, MemoryNS: memNS, CPUNS: cpuNS, TotalNS: memNS + cpuNS}
}

func (m *mirror) compile(p costmodel.Pattern) (*costir.Program, error) {
	defer m.enter("costir.compile")()
	prog, err := costir.Compile(p)
	if err == nil {
		m.compileInstrs += int64(prog.NumInstructions())
	}
	return prog, err
}

func (m *mirror) eval(prog *costir.Program, h *costmodel.Hierarchy) float64 {
	defer m.enter("costir.eval")()
	m.evalInstrs += int64(prog.NumInstructions())
	return prog.MemoryTimeNS(h)
}

// search mirrors Server.searchPlan: the DP search (phase 1), the
// planner's exact re-cost with cost-equivalence dedup (phase 2), the
// ranking, and recipe extraction; it returns the plan-cache entry the
// server would store and the answer.
func (m *mirror) search(req *server.PlanRequest, q queryplan.Query, fp queryplan.Fingerprint, names []string) (*planEntry, reply, error) {
	h, err := costmodel.Profile(req.Profile)
	if err != nil {
		return nil, reply{}, err
	}
	cpu, prune := queryplan.DefaultCPU(), minCapacity(h)
	done := m.enter("queryplan.search")
	plans, err := queryplan.Search(q, queryplan.Options{CPU: cpu, PruneBytes: prune, Search: searchOptions}, h)
	done()
	if err != nil {
		return nil, reply{}, err
	}
	m.searchPlans += int64(len(plans))

	type costed struct {
		rp   server.RankedPlan
		tree *queryplan.Plan
	}
	var cands []costed
	var progs []*costir.Program
	done = m.enter("planner.cost")
	seen := make(map[string]bool, len(plans))
	for _, p := range plans {
		lowered := m.enter("queryplan.lower")
		pat, cpuNS, err := p.Lower(cpu, prune)
		lowered()
		if err != nil {
			done()
			return nil, reply{}, err
		}
		canonical := m.enter("costir.canonical")
		canon, err := costir.CanonicalKey(pat)
		canonical()
		if err != nil {
			done()
			return nil, reply{}, err
		}
		k := fmt.Sprintf("%s|%.17g", canon, cpuNS)
		if seen[k] {
			continue
		}
		seen[k] = true
		prog, err := m.compile(pat)
		if err != nil {
			done()
			return nil, reply{}, err
		}
		cands = append(cands, costed{rp: server.RankedPlan{Plan: p.Signature(), CPUNS: cpuNS}, tree: p})
		progs = append(progs, prog)
	}
	for i := range cands {
		cands[i].rp = ranked(cands[i].rp.Plan, m.eval(progs[i], h), cands[i].rp.CPUNS)
	}
	done()
	if len(cands) == 0 {
		return nil, reply{}, fmt.Errorf("no plans enumerated")
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].rp.TotalNS < cands[j].rp.TotalNS })

	e := &planEntry{params: fp.Params, names: names, plans: len(cands)}
	for _, c := range cands {
		e.ranking = append(e.ranking, c.rp)
	}
	e.recipes = make([]*queryplan.Recipe, len(cands))
	for i, c := range cands {
		done := m.enter("queryplan.recipe")
		e.recipes[i], err = queryplan.NewRecipe(c.tree, q, fp)
		done()
		if err != nil {
			return nil, reply{}, err
		}
	}
	return e, finish(servedSearch, e.plans, e.ranking), nil
}

// finish mirrors the server's default top-5 slice of a ranking.
func finish(sv served, plans int, ranking []server.RankedPlan) reply {
	return planReply(sv, plans, ranking[:min(len(ranking), server.DefaultPlanTop)])
}

func minCapacity(h *costmodel.Hierarchy) int64 {
	c := h.Levels[0].Capacity
	for _, l := range h.Levels {
		c = min(c, l.Capacity)
	}
	return c
}

// batch mirrors Server.EvaluateBatch: a parse-and-canonicalize prepass
// electing one leader per result key, then per leader the
// re-parse, result cache, compile cache and evaluation of
// Server.Evaluate, leaders in order.
func (m *mirror) batch(items []server.EvalRequest) (reply, error) {
	mem := make([]float64, len(items))
	leader := make(map[string]int, len(items))
	follow := make([]int, len(items))
	var leaders []int
	for i, it := range items {
		_, canon, err := m.parse(it)
		if err != nil {
			return reply{}, err
		}
		key := it.Profile + "|" + canon
		if li, ok := leader[key]; ok {
			follow[i] = li
			continue
		}
		leader[key], follow[i] = i, i
		leaders = append(leaders, i)
	}
	for _, i := range leaders {
		p, canon, err := m.parse(items[i])
		if err != nil {
			return reply{}, err
		}
		key := items[i].Profile + "|" + canon
		if v, ok := m.results.get(key); ok {
			mem[i] = v
			continue
		}
		prog, ok := m.compiled.get(canon)
		if !ok {
			if prog, err = m.compile(p); err != nil {
				return reply{}, err
			}
			m.compiled.put(canon, prog)
		}
		h, err := costmodel.Profile(items[i].Profile)
		if err != nil {
			return reply{}, err
		}
		mem[i] = m.eval(prog, h)
		m.results.put(key, mem[i])
	}
	for i, li := range follow {
		mem[i] = mem[li]
	}
	return batchReply(mem), nil
}

// evalOne prices one evaluation request without any cache.
func (m *mirror) evalOne(it server.EvalRequest) (float64, error) {
	p, _, err := m.parse(it)
	if err != nil {
		return 0, err
	}
	prog, err := m.compile(p)
	if err != nil {
		return 0, err
	}
	h, err := costmodel.Profile(it.Profile)
	if err != nil {
		return 0, err
	}
	return m.eval(prog, h), nil
}

// parse mirrors the server's request parse and canonicalization.
func (m *mirror) parse(it server.EvalRequest) (costmodel.Pattern, string, error) {
	done := m.enter("pattern.parse")
	regions := make(map[string]*costmodel.Region, len(it.Regions))
	for _, d := range it.Regions {
		regions[d.Name] = costmodel.NewRegion(d.Name, d.Items, d.Width)
	}
	p, err := costmodel.ParsePattern(it.Pattern, regions)
	done()
	if err != nil {
		return nil, "", err
	}
	done = m.enter("costir.canonical")
	canon, err := costmodel.CanonicalPattern(p)
	done()
	return p, canon, err
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// lru is a least-recently-used cache with the server's semantics: get
// refreshes, put inserts at the front and evicts from the back.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruItem[V]).key)
	}
}
