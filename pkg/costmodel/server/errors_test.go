package server_test

// Error-path and counter coverage for the evaluation service:
// malformed bodies, unknown profiles, oversized batches, and the
// /healthz cache hit/miss counters under canonical-equivalent request
// streams.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/pkg/costmodel/server"
)

func TestEvaluateMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, body := range []string{
		"{not json",
		`[1, 2, 3]`,
		`{"requests": "not an array"}`,
		"",
	} {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestEvaluateUnknownProfile(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", server.EvalRequest{
		Profile: "cray-1",
		Regions: []server.RegionDecl{{Name: "U", Items: 1024, Width: 16}},
		Pattern: "s_trav(U)",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var res server.EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Error, "unknown profile") {
		t.Errorf("error %q does not mention the unknown profile", res.Error)
	}
}

func TestEvaluateOversizedBatch(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	reqs := make([]server.EvalRequest, server.MaxBatchRequests+1)
	for i := range reqs {
		reqs[i] = server.EvalRequest{
			Profile: "small-test",
			Regions: []server.RegionDecl{{Name: "U", Items: 64, Width: 16}},
			Pattern: "s_trav(U)",
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", server.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("exceeds the maximum")) {
		t.Errorf("oversized batch error not surfaced: %s", body)
	}

	// A batch at exactly the cap (sharing one cached entry) still works.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", server.BatchRequest{Requests: reqs[:server.MaxBatchRequests]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cap-sized batch: status %d: %.200s", resp.StatusCode, body)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != server.MaxBatchRequests {
		t.Fatalf("cap-sized batch returned %d results", len(br.Results))
	}
}

// healthState decodes the cache counters from /healthz.
type healthState struct {
	Status       string `json:"status"`
	CompileCache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	} `json:"compile_cache"`
	ResultCache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	} `json:"result_cache"`
}

func getHealth(t *testing.T, url string) healthState {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthState
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHealthzCountersCanonicalEquivalence drives the server with
// differently spelled but canonically equivalent patterns and checks
// the /healthz counters step by step: equivalent spellings must hit
// the result cache (keyed on canonical form), and a profile switch
// must miss the result cache but hit the compile cache (keyed on
// canonical form only).
func TestHealthzCountersCanonicalEquivalence(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	regions := []server.RegionDecl{
		{Name: "U", Items: 4096, Width: 16},
		{Name: "V", Items: 1024, Width: 16},
	}
	// ⊙ is commutative: both spellings share one canonical form.
	spellA := "s_trav(U) (.) s_trav(V)"
	spellB := "s_trav(V) (.) s_trav(U)"

	h0 := getHealth(t, ts.URL)
	if h0.Status != "ok" {
		t.Fatalf("status %q", h0.Status)
	}

	eval := func(profile, pat string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", server.EvalRequest{
			Profile: profile, Regions: regions, Pattern: pat,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %q: status %d: %s", pat, resp.StatusCode, body)
		}
	}

	eval("origin2000", spellA) // cold: result miss, compile miss
	h1 := getHealth(t, ts.URL)
	if got, want := h1.ResultCache.Misses-h0.ResultCache.Misses, uint64(1); got != want {
		t.Errorf("after cold request: result misses +%d, want +%d", got, want)
	}
	if got, want := h1.CompileCache.Misses-h0.CompileCache.Misses, uint64(1); got != want {
		t.Errorf("after cold request: compile misses +%d, want +%d", got, want)
	}

	for i := 0; i < 3; i++ {
		eval("origin2000", spellB) // equivalent spelling: result hits
	}
	h2 := getHealth(t, ts.URL)
	if got, want := h2.ResultCache.Hits-h1.ResultCache.Hits, uint64(3); got != want {
		t.Errorf("equivalent spellings: result hits +%d, want +%d", got, want)
	}
	if got := h2.CompileCache.Misses - h1.CompileCache.Misses; got != 0 {
		t.Errorf("equivalent spellings: compile misses +%d, want +0 (result hit short-circuits)", got)
	}

	eval("modern-x86", spellB) // new profile: result miss, compile hit
	h3 := getHealth(t, ts.URL)
	if got, want := h3.ResultCache.Misses-h2.ResultCache.Misses, uint64(1); got != want {
		t.Errorf("profile switch: result misses +%d, want +%d", got, want)
	}
	if got, want := h3.CompileCache.Hits-h2.CompileCache.Hits, uint64(1); got != want {
		t.Errorf("profile switch: compile hits +%d, want +%d (compiled program is profile-independent)", got, want)
	}
	if h3.ResultCache.Entries != 2 || h3.CompileCache.Entries != 1 {
		t.Errorf("entries: result %d (want 2: one per profile), compile %d (want 1: canonical form shared)",
			h3.ResultCache.Entries, h3.CompileCache.Entries)
	}
}

// TestOverflowingSizesRejected: a region or relation whose byte size
// (items × width) overflows int64 is rejected with 400 on both
// endpoints — never priced off a wrapped size — and leaves no cache
// entry behind.
func TestOverflowingSizesRejected(t *testing.T) {
	shapes := []struct{ n, w int64 }{{1 << 62, 8}, {1 << 60, 64}, {1 << 40, 1 << 24}}
	s, ts := newTestServer(t, server.Config{})
	for _, sh := range shapes {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", server.EvalRequest{
			Profile: "origin2000",
			Regions: []server.RegionDecl{{Name: "R", Items: sh.n, Width: sh.w}},
			Pattern: "s_trav(R)",
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/evaluate %d×%d: status %d, want 400: %s", sh.n, sh.w, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "overflows int64") {
			t.Errorf("/v1/evaluate %d×%d: error does not name the overflow: %s", sh.n, sh.w, body)
		}

		resp, body = postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
			Profile: "origin2000",
			Query: &server.PlanQuery{
				Relations: []server.PlanRelation{{Name: "A", Tuples: sh.n, Width: sh.w}, {Name: "B", Tuples: 1000, Width: 16}},
				Joins:     []server.PlanJoin{{Left: 0, Right: 1, Selectivity: 1e-3}},
			},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/plan %d×%d: status %d, want 400: %s", sh.n, sh.w, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "overflows int64") {
			t.Errorf("/v1/plan %d×%d: error does not name the overflow: %s", sh.n, sh.w, body)
		}
	}
	// Valid inputs whose join output (2^62 tuples) overflows: the error
	// surfaces from compiling the plan, not as a price. The inputs are
	// key-ordered so the search prices no quick-sort of them.
	half := server.PlanRelation{Tuples: 1 << 31, Width: 16, Sorted: true}
	a, b := half, half
	a.Name, b.Name = "A", "B"
	resp, body := postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
		Profile: "origin2000",
		Query: &server.PlanQuery{
			Relations: []server.PlanRelation{a, b},
			Joins:     []server.PlanJoin{{Left: 0, Right: 1, Selectivity: 1}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "overflows int64") {
		t.Errorf("/v1/plan overflowing join output: status %d, want 400 naming the overflow: %s", resp.StatusCode, body)
	}
	if n := s.ResultCacheStats().Entries; n != 0 {
		t.Errorf("result cache holds %d entries after rejected requests", n)
	}
	if n := s.CompileCacheStats().Entries; n != 0 {
		t.Errorf("compile cache holds %d entries after rejected requests", n)
	}
	if n := s.PlanCacheStats().Entries; n != 0 {
		t.Errorf("plan cache holds %d entries after rejected requests", n)
	}
}
