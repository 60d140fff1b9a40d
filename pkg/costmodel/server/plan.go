package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
)

// POST /v1/plan prices whole query plans: the request names either a
// catalog scenario or an inline logical query, plus a hardware profile;
// the response ranks the enumerated physical plans (join order +
// algorithm choices) cheapest first. See docs/scenarios.md.
//
// Plan searches are memoized in a shape-keyed plan cache: the cache key
// is the query's canonical join-graph fingerprint, so inline queries
// that differ only in relation naming or ordering — and every repeat of
// a catalog scenario — share one entry. A cached entry stores the
// ranking together with relabelable plan recipes; when a same-shape
// request arrives with drifted numeric parameters, the recipes are
// re-bound and re-scored (recompiled and IR-evaluated, milliseconds per
// plan) and the cached answer is served as long as its winner keeps the top
// spot — only a dethroned winner triggers a full plan-space re-search.
// See docs/serving.md.

// PlanRequest asks for a plan ranking on one profile.
type PlanRequest struct {
	// Profile names a registered hardware profile.
	Profile string `json:"profile"`
	// Scenario names a catalog scenario. Exactly one of Scenario and
	// Query must be set.
	Scenario string `json:"scenario,omitempty"`
	// Query is an inline logical query.
	Query *PlanQuery `json:"query,omitempty"`
	// Top bounds the ranked plans echoed back; 0 means DefaultPlanTop,
	// negative returns every plan.
	Top int `json:"top,omitempty"`
	// Search selects the plan-space search strategy: "dp" (the default
	// — memoized DP over connected subgraphs, bushy trees) or
	// "exhaustive" (the left-deep small-query oracle).
	Search string `json:"search,omitempty"`
	// TopK bounds the subplans the DP search keeps per memo bucket; 0
	// means the engine default. The HTTP surface caps it at MaxPlanTopK
	// and rejects negative values (the pruning-disabled oracle mode is
	// an in-process test facility — over the wire it would let one
	// request grow the memo and the phase-2 re-cost without bound).
	TopK int `json:"topk,omitempty"`
	// LeftDeep restricts the DP search to left-deep join trees.
	LeftDeep bool `json:"left_deep,omitempty"`
	// Parallelism bounds the worker pool the DP search uses per memo
	// stratum; 0 means the engine default (one worker per CPU). The
	// HTTP surface caps it at MaxPlanParallelism and rejects negative
	// values. The ranking is bit-identical at every setting — the knob
	// trades latency for CPU, never answers.
	Parallelism int `json:"parallelism,omitempty"`
}

// MaxPlanTopK is the widest DP memo the HTTP surface accepts.
const MaxPlanTopK = 64

// MaxPlanParallelism is the widest per-request DP worker pool the HTTP
// surface accepts (requests already queue on the server's own bounded
// worker pool; letting one request fan out further than this buys
// nothing and starves neighbours).
const MaxPlanParallelism = 16

// DefaultPlanTop is the ranking depth returned when PlanRequest.Top is 0.
const DefaultPlanTop = 5

// planRevalidateTopK is how many cached recipes — the winner plus its
// closest rivals — are re-bound and re-scored when a same-shape request
// arrives with drifted parameters. Rivals further down the original
// ranking would need a drift large enough to leapfrog all of these, at
// which point the winner-keeps-top check has almost certainly failed
// already and a full re-search runs anyway.
const planRevalidateTopK = 5

// planEntry is one cached plan-search result: the full ranking plus a
// relabelable recipe per ranked plan, with the parameter vector and the
// canonical-order relation names it was priced under. Entries are
// immutable once stored (responses copy out of them).
type planEntry struct {
	// params is the fingerprint's canonical parameter vector.
	params []float64
	// names holds the relation names in canonical order
	// (names[pos] = Relations[Perm[pos]].Name): plan signatures embed
	// relation names, so serving the stored strings verbatim requires
	// the names to match too; a renamed isomorph re-renders through the
	// recipes instead.
	names []string
	// plans is the number of distinct plans the search priced.
	plans   int
	ranking []RankedPlan
	// recipes are index-aligned with ranking.
	recipes []*scenario.Recipe
}

// PlanQuery is the wire form of a logical query.
type PlanQuery struct {
	Relations []PlanRelation `json:"relations"`
	Joins     []PlanJoin     `json:"joins,omitempty"`
	// Filters holds one scan selectivity per relation in (0, 1]; 0
	// means no filter.
	Filters []float64 `json:"filters,omitempty"`
	// Projections holds one bytes-used value per relation; 0 means the
	// full width.
	Projections []int64 `json:"projections,omitempty"`
	GroupBy     int64   `json:"group_by,omitempty"`
	Distinct    int64   `json:"distinct,omitempty"`
	SortBy      bool    `json:"sort_by,omitempty"`
}

// PlanRelation declares one base relation.
type PlanRelation struct {
	Name   string `json:"name"`
	Tuples int64  `json:"tuples"`
	Width  int64  `json:"width"`
	Sorted bool   `json:"sorted,omitempty"`
}

// PlanJoin is one join-graph edge (indices into the relation list).
type PlanJoin struct {
	Left        int     `json:"left"`
	Right       int     `json:"right"`
	Selectivity float64 `json:"selectivity"`
}

// RankedPlan is one priced physical plan.
type RankedPlan struct {
	// Plan is the plan signature (join order, algorithms, grouping).
	Plan     string  `json:"plan"`
	MemoryNS float64 `json:"memory_ns"`
	CPUNS    float64 `json:"cpu_ns"`
	TotalNS  float64 `json:"total_ns"`
}

// The PlanResponse.Served values.
const (
	// PlanServedSearch: a full plan-space search ran.
	PlanServedSearch = "search"
	// PlanServedCache: answered from the plan cache (same shape, same
	// parameters; relation names re-rendered if the request spelled
	// them differently).
	PlanServedCache = "cache"
	// PlanServedRevalidated: same shape, drifted parameters — the
	// cached recipes were re-scored with the IR evaluator and the
	// cached winner held the top spot.
	PlanServedRevalidated = "revalidated"
)

// PlanResponse ranks a query's physical plans cheapest first.
type PlanResponse struct {
	Profile  string `json:"profile"`
	Scenario string `json:"scenario,omitempty"`
	// Shape is the query's canonical join-graph fingerprint key — the
	// plan cache's identity for the query modulo relation naming,
	// ordering and numeric parameters.
	Shape string `json:"shape,omitempty"`
	// Served reports how the answer was produced: "search",
	// "cache", or "revalidated".
	Served string `json:"served,omitempty"`
	// Plans is the number of distinct plans priced (the ranking below
	// may be truncated to the requested top). On a revalidated answer
	// it reports the original search's count.
	Plans   int          `json:"plans"`
	Winner  RankedPlan   `json:"winner"`
	Ranking []RankedPlan `json:"ranking"`
	Error   string       `json:"error,omitempty"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req PlanRequest
	if err := readJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res := s.Plan(req)
	status := http.StatusOK
	if res.Error != "" {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, res)
}

// Plan resolves and prices one plan request on the server's registry.
// The plan search runs on the server's bounded worker pool.
//
// Requests are served through the shape-keyed plan cache: the key is
// (registry version, profile, shape fingerprint, search options) — the
// search options are part of the key, so a DP answer can never leak
// into an exhaustive request (or vice versa); the requested top is
// sliced per request after the cache. Catalog scenarios and inline
// queries share the machinery (and, when shapes coincide, the entries):
// a scenario resolves to its query and fingerprints like any other.
func (s *Server) Plan(req PlanRequest) *PlanResponse {
	if req.Profile == "" {
		return &PlanResponse{Error: "missing profile"}
	}
	res := &PlanResponse{Profile: req.Profile, Scenario: req.Scenario}
	so, err := searchFromWire(req)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	var q scenario.Query
	switch {
	case req.Scenario != "" && req.Query != nil:
		res.Error = "set either scenario or query, not both"
		return res
	case req.Scenario != "":
		sc, ok := scenario.ByName(req.Scenario)
		if !ok {
			res.Error = fmt.Sprintf("unknown scenario %q (have: %v)", req.Scenario, scenario.Names())
			return res
		}
		q = sc.Query
	case req.Query != nil:
		q = queryFromWire(req.Query)
	default:
		res.Error = "missing scenario or query"
		return res
	}

	// The fingerprint validates the query (its errors are Validate's,
	// surfaced before any search work) and yields the cache identity.
	fp, err := scenario.FingerprintQuery(q)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Shape = fp.Key
	names := canonicalNames(q, fp)

	// Parallelism is part of the key only for audit symmetry with the
	// other knobs: rankings are bit-identical across settings (the
	// determinism suite locks this), so sharing entries across
	// parallelism levels would be sound — but a knob that silently
	// vanishes from the key is a trap for the next knob that does
	// change answers, so every search option is keyed uniformly.
	cacheKey := fmt.Sprintf("plan|v%d|%q|fp=%s|search=%s|topk=%d|leftdeep=%t|par=%d",
		s.reg.Version(), req.Profile, fp.Key, so.Strategy, so.TopK, so.LeftDeepOnly, so.Parallelism)

	if s.planCache != nil {
		if entry, ok := s.planCache.get(cacheKey); ok {
			if done := s.servePlanFromCache(res, req, entry, q, fp, names); done {
				return res
			}
		} else {
			s.planMisses.Add(1)
		}
	}
	return s.searchPlan(res, req, q, fp, so, names, cacheKey)
}

// servePlanFromCache tries the three cached paths — pure hit, renamed
// hit, drift revalidation — filling res and returning true on success.
// False means the caller must run a full search (the revalidation-miss
// and bind-failure paths); the relevant counters are bumped here.
func (s *Server) servePlanFromCache(res *PlanResponse, req PlanRequest, entry *planEntry, q scenario.Query, fp scenario.Fingerprint, names []string) bool {
	if equalParams(entry.params, fp.Params) {
		// Same shape, same parameters: the cached costs are exact.
		if equalNames(entry.names, names) {
			s.planHits.Add(1)
			finishPlan(res, entry.ranking, entry.plans, req.Top, PlanServedCache)
			return true
		}
		// A renamed isomorph: costs are name-independent, but the plan
		// signatures embed relation names — re-render them by binding
		// each recipe to this query (no IR evaluation).
		ranking := make([]RankedPlan, len(entry.ranking))
		for i, rp := range entry.ranking {
			bound, err := scenario.BindRecipe(entry.recipes[i], q, fp)
			if err != nil {
				s.planRevalMisses.Add(1)
				return false
			}
			rp.Plan = bound.Signature()
			ranking[i] = rp
		}
		s.planHits.Add(1)
		finishPlan(res, ranking, entry.plans, req.Top, PlanServedCache)
		return true
	}

	// Parameter drift: re-bind and re-score the cached winner plus its
	// closest rivals (recompiled and IR-evaluated, milliseconds per plan) and
	// serve the cached answer only if the winner holds the top spot.
	h, err := s.reg.Profile(req.Profile)
	if err != nil {
		res.Error = err.Error()
		return true
	}
	n := len(entry.recipes)
	if n > planRevalidateTopK {
		n = planRevalidateTopK
	}
	trees := make([]*scenario.Plan, n)
	for i := 0; i < n; i++ {
		bound, err := scenario.BindRecipe(entry.recipes[i], q, fp)
		if err != nil {
			s.planRevalMisses.Add(1)
			return false
		}
		trees[i] = bound
	}
	s.sem <- struct{}{}
	rescored, err := scenario.RescorePlans(h, trees)
	<-s.sem
	if err != nil {
		s.planRevalMisses.Add(1)
		return false
	}
	for _, p := range rescored[1:] {
		if p.TotalNS() < rescored[0].TotalNS() {
			// The cached winner lost under the drifted parameters: the
			// pruned DP search could now surface plans the cache never
			// stored, so only a full re-search is trustworthy.
			s.planRevalMisses.Add(1)
			return false
		}
	}
	ranking := make([]RankedPlan, len(rescored))
	for i, p := range rescored {
		ranking[i] = rankedPlan(p)
	}
	// Ties keep the original search order (stable, like the search's
	// own ranking).
	sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].TotalNS < ranking[j].TotalNS })
	s.planRevalidations.Add(1)
	// The entry is deliberately NOT updated: re-anchoring the cached
	// parameters on every drifted request would let a scenario/inline
	// mix thrash between re-validations; the entry keeps the
	// parameters it was searched under until a full search replaces it.
	finishPlan(res, ranking, entry.plans, req.Top, PlanServedRevalidated)
	return true
}

// searchPlan runs the full plan-space search and (re)fills the cache.
func (s *Server) searchPlan(res *PlanResponse, req PlanRequest, q scenario.Query, fp scenario.Fingerprint, so scenario.SearchOptions, names []string, cacheKey string) *PlanResponse {
	h, err := s.reg.Profile(req.Profile)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	s.sem <- struct{}{}
	priced, err := scenario.PricePlanTreesSearch(h, q, so)
	<-s.sem
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if len(priced) == 0 {
		res.Error = "no plans enumerated"
		return res
	}
	ranking := make([]RankedPlan, len(priced))
	recipes := make([]*scenario.Recipe, len(priced))
	cacheable := s.planCache != nil
	for i, pp := range priced {
		ranking[i] = rankedPlan(pp.Plan)
		if !cacheable {
			continue
		}
		r, err := scenario.NewRecipe(pp.Tree, q, fp)
		if err != nil {
			// A plan the recipe extractor cannot relabel (should not
			// happen for plans searched from q): serve the answer, skip
			// caching it.
			cacheable = false
			continue
		}
		recipes[i] = r
	}
	if cacheable {
		s.planCache.put(cacheKey, &planEntry{
			params:  fp.Params,
			names:   names,
			plans:   len(ranking),
			ranking: ranking,
			recipes: recipes,
		})
	}
	finishPlan(res, ranking, len(ranking), req.Top, PlanServedSearch)
	return res
}

// finishPlan fills the response from a full ranking, slicing to the
// requested top (0 means DefaultPlanTop, negative means everything).
func finishPlan(res *PlanResponse, ranking []RankedPlan, plans, top int, served string) {
	res.Plans = plans
	res.Served = served
	if top == 0 {
		top = DefaultPlanTop
	}
	if top < 0 || top > len(ranking) {
		top = len(ranking)
	}
	res.Ranking = append([]RankedPlan(nil), ranking[:top]...)
	res.Winner = ranking[0]
}

// canonicalNames lists q's relation names in canonical fingerprint
// order — the name identity a cached entry's plan signatures depend on.
func canonicalNames(q scenario.Query, fp scenario.Fingerprint) []string {
	names := make([]string, len(fp.Perm))
	for pos, i := range fp.Perm {
		names[pos] = q.Relations[i].Name
	}
	return names
}

func equalParams(a, b []float64) bool {
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

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rankedPlan(p costmodel.Plan) RankedPlan {
	return RankedPlan{
		Plan:     string(p.Algorithm),
		MemoryNS: p.MemNS,
		CPUNS:    p.CPUNS,
		TotalNS:  p.TotalNS(),
	}
}

// searchFromWire resolves, validates and normalizes the request's
// search options. Validation runs here — before the cache and the
// worker pool — so an invalid option is a cheap 400, never a poisoned
// cache entry; normalization (default strategy and top-k made
// explicit, DP-only knobs zeroed for the exhaustive oracle) makes
// semantically identical requests share one cache entry.
func searchFromWire(req PlanRequest) (scenario.SearchOptions, error) {
	so := scenario.SearchOptions{
		Strategy:     scenario.SearchStrategy(req.Search),
		TopK:         req.TopK,
		LeftDeepOnly: req.LeftDeep,
		Parallelism:  req.Parallelism,
	}
	switch so.Strategy {
	case "":
		so.Strategy = scenario.SearchDP
	case scenario.SearchDP, scenario.SearchExhaustive:
	default:
		return so, fmt.Errorf("unknown search strategy %q (want %q or %q)",
			req.Search, scenario.SearchDP, scenario.SearchExhaustive)
	}
	if so.TopK < 0 || so.TopK > MaxPlanTopK {
		return so, fmt.Errorf("topk %d outside [0, %d] (pruning cannot be disabled over HTTP)",
			so.TopK, MaxPlanTopK)
	}
	if so.TopK == 0 {
		so.TopK = scenario.DefaultTopK
	}
	if so.Parallelism < 0 || so.Parallelism > MaxPlanParallelism {
		return so, fmt.Errorf("parallelism %d outside [0, %d]", so.Parallelism, MaxPlanParallelism)
	}
	if so.Strategy == scenario.SearchExhaustive {
		// The exhaustive path ignores the DP knobs; zeroing them keeps
		// the cache key canonical.
		so.TopK, so.LeftDeepOnly, so.Parallelism = 0, false, 0
	}
	return so, nil
}

func queryFromWire(pq *PlanQuery) scenario.Query {
	q := scenario.Query{
		Filters:     pq.Filters,
		Projections: pq.Projections,
		GroupBy:     pq.GroupBy,
		Distinct:    pq.Distinct,
		SortBy:      pq.SortBy,
	}
	for _, r := range pq.Relations {
		q.Relations = append(q.Relations, scenario.Relation{
			Name: r.Name, Tuples: r.Tuples, Width: r.Width, Sorted: r.Sorted,
		})
	}
	for _, j := range pq.Joins {
		q.Joins = append(q.Joins, scenario.JoinEdge{
			Left: j.Left, Right: j.Right, Selectivity: j.Selectivity,
		})
	}
	return q
}
