package server_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/pkg/costmodel/server"
)

// TestBatchDedup: requests of one batch sharing a canonical program
// collapse onto one evaluation even with the result cache disabled —
// followers clone the leader's result, re-echo their own spelling, and
// add their own CPU estimate.
func TestBatchDedup(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 2, CacheSize: -1, CompileCacheSize: -1})
	u := []server.RegionDecl{{Name: "U", Items: 1 << 16, Width: 16}}
	reqs := []server.EvalRequest{
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)"},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", CPUNS: 5e6},
		{Profile: "origin2000", Regions: u, Pattern: "r_trav(U)"},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", Explain: true},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", Explain: true},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U) (.) r_trav(U)", Explain: true},
		{Profile: "origin2000", Regions: u, Pattern: "r_trav(U) (.) s_trav(U)", Explain: true},
		{Pattern: "s_trav(U)"}, // missing profile: resolved in the prepass
	}
	results := srv.EvaluateBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results[:7] {
		if res.Error != "" {
			t.Fatalf("request %d: %s", i, res.Error)
		}
	}

	// Request 1 follows request 0: same memory cost, its own CPU
	// estimate on top, marked served-without-evaluation.
	if results[1].MemoryNS != results[0].MemoryNS {
		t.Errorf("follower memory_ns %g != leader %g", results[1].MemoryNS, results[0].MemoryNS)
	}
	if want := results[0].MemoryNS + 5e6; results[1].TotalNS != want {
		t.Errorf("follower total_ns %g, want %g", results[1].TotalNS, want)
	}
	if !results[1].Cached {
		t.Error("follower not marked cached")
	}
	if results[0].Cached {
		t.Error("leader marked cached with the result cache disabled")
	}

	// The explain pair dedups within itself but not against the plain
	// requests (the key carries the explain flag).
	if len(results[3].Explain) == 0 || len(results[4].Explain) == 0 {
		t.Error("explain output missing")
	}
	if !results[4].Cached || results[3].Cached {
		t.Error("explain pair did not dedup onto its first occurrence")
	}
	// Explain itemizes the canonical tree, so ⊙-swapped spellings share
	// one explained leader and its rows.
	if !results[6].Cached || results[5].Cached {
		t.Error("⊙-swapped explain spellings did not share one dedup leader")
	}
	if len(results[5].Explain) != 3 || !reflect.DeepEqual(results[5].Explain, results[6].Explain) {
		t.Errorf("explain rows differ across spellings: %+v vs %+v", results[5].Explain, results[6].Explain)
	}

	if results[7].Error == "" {
		t.Error("malformed request produced no error")
	}

	// 4 leaders evaluated (plain, r_trav, two explained), 3 followers
	// served by dedup; the malformed request counts as neither.
	st := srv.BatchDedupStats()
	if st.Hits != 3 || st.Misses != 4 {
		t.Errorf("dedup stats hits=%d misses=%d, want 3/4", st.Hits, st.Misses)
	}

	// Parity: a deduped batch returns what per-request evaluation would.
	for i, req := range reqs[:7] {
		direct := srv.Evaluate(req)
		if direct.Error != "" {
			t.Fatalf("direct %d: %s", i, direct.Error)
		}
		if results[i].MemoryNS != direct.MemoryNS || results[i].TotalNS != direct.TotalNS {
			t.Errorf("request %d: batch (%g, %g) != direct (%g, %g)",
				i, results[i].MemoryNS, results[i].TotalNS, direct.MemoryNS, direct.TotalNS)
		}
		if results[i].Pattern != direct.Pattern {
			t.Errorf("request %d: pattern echo %q != direct %q", i, results[i].Pattern, direct.Pattern)
		}
	}

	// The counters surface on /healthz.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		BatchDedup struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"batch_dedup"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.BatchDedup.Hits != 3 || health.BatchDedup.Misses != 4 {
		t.Errorf("healthz batch_dedup hits=%d misses=%d, want 3/4",
			health.BatchDedup.Hits, health.BatchDedup.Misses)
	}
}
