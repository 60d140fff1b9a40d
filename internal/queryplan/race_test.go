package queryplan_test

// The race suite drives the parallel DP memo through its most
// contended shapes — the largest catalog scenarios, a worker pool per
// stratum, several whole searches in flight at once sharing the
// process-global step cache — so `go test -race ./...` (the CI race
// matrix job) observes the memo's synchronization under real load, not
// just the single-threaded paths the rest of the suite mostly takes.
// It also searches two hardware profiles at once, which pins that their
// pricing environments never share a step-cache entry.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/hardware"
	"repro/internal/planner"
	"repro/internal/queryplan"
)

// raceScenarios are the catalog's largest join graphs — the deepest
// strata, the widest subsets-per-stratum fan-out.
var raceScenarios = []string{"join7-star", "join8-chain", "join10-star", "join12-chain"}

// twoProfileScenarios are searched on origin2000 and modern-x86 at
// once. They are the catalog queries whose default-TopK ranking changes
// when one profile's bounds are priced with the other profile's step
// costs; on most others the survivors are the same either way.
var twoProfileScenarios = []string{"join2-large", "join3-chain-q3"}

func TestDPParallelSearchRace(t *testing.T) {
	byName := make(map[string]queryplan.Scenario)
	for _, sc := range queryplan.Catalog() {
		byName[sc.Name] = sc
	}
	pl, err := planner.New(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range raceScenarios {
		sc, ok := byName[name]
		if !ok {
			t.Fatalf("scenario %q missing from the catalog", name)
		}
		// Two concurrent searches per scenario: workers of independent
		// searches race on the shared step cache, workers within one
		// search race on its memo and bounder tables.
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(sc queryplan.Scenario) {
				defer wg.Done()
				plans, err := pl.QueryPlansSearch(sc.Query, planner.SearchOptions{Parallelism: 8})
				if err != nil {
					t.Errorf("%s: %v", sc.Name, err)
					return
				}
				if len(plans) == 0 {
					t.Errorf("%s: no plans", sc.Name)
				}
			}(sc)
		}
	}
	wg.Wait()

	// Each profile's sequential baseline is searched on an emptied step
	// cache, so it holds only that profile's step costs; the concurrent
	// searches then start from an empty cache too and fill it for both
	// profiles at once.
	profiles := []*hardware.Hierarchy{hardware.Origin2000(), hardware.ModernX86()}
	so := planner.SearchOptions{Parallelism: 2}
	planners := make([]*planner.Planner, len(profiles))
	want := make([][][]planTrace, len(profiles))
	for i, h := range profiles {
		if planners[i], err = planner.New(h); err != nil {
			t.Fatal(err)
		}
		for _, name := range twoProfileScenarios {
			queryplan.ResetStepCache()
			plans, err := planners[i].QueryPlansSearch(byName[name].Query, so)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, h.Name, err)
			}
			want[i] = append(want[i], traceOf(plans))
		}
	}
	queryplan.ResetStepCache()
	for i, pl := range planners {
		for j, name := range twoProfileScenarios {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(pl *planner.Planner, h string, name string, want []planTrace) {
					defer wg.Done()
					plans, err := pl.QueryPlansSearch(byName[name].Query, so)
					if err != nil {
						t.Errorf("%s on %s: %v", name, h, err)
						return
					}
					got := traceOf(plans)
					if !slices.Equal(got, want) {
						t.Errorf("%s on %s: concurrent two-profile ranking differs from the sequential one:\n  got  %v\n  want %v",
							name, h, got, want)
					}
				}(pl, profiles[i].Name, name, want[i][j])
			}
		}
	}
	wg.Wait()
}
