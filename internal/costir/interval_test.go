package costir

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/pattern"
	"repro/internal/region"
)

// ancestorOrSelfByWalk is the reference for RegionInfo.contains: it
// walks b's parent chain looking for a.
func ancestorOrSelfByWalk(regs []RegionInfo, a, b int32) bool {
	for x := b; x >= 0; x = regs[x].Parent {
		if x == a {
			return true
		}
	}
	return false
}

// randomForest builds a region forest of several roots: random
// attachment to earlier regions, plus one chain deeper than 20. Names
// repeat so that some siblings share an identity.
func randomForest(rng *rand.Rand) []*region.Region {
	var regs []*region.Region
	roots := 2 + rng.Intn(3)
	for i := 0; i < roots; i++ {
		regs = append(regs, region.New("R"+strconv.Itoa(i), int64(1+rng.Intn(1<<20)), int64(1+rng.Intn(64))))
	}
	deep := regs[rng.Intn(roots)]
	for d := 0; d < 21+rng.Intn(10); d++ {
		deep = deep.Sub(int64(rng.Intn(2)), 2)
		regs = append(regs, deep)
	}
	for i := 0; i < 20+rng.Intn(60); i++ {
		p := regs[rng.Intn(len(regs))]
		regs = append(regs, &region.Region{Name: "s" + strconv.Itoa(rng.Intn(4)), N: 1 + p.N/2, W: p.W, Parent: p})
	}
	return regs
}

// cloneForest copies every region into a separately allocated value
// with the same identity.
func cloneForest(regs []*region.Region) []*region.Region {
	copies := map[*region.Region]*region.Region{}
	var clone func(r *region.Region) *region.Region
	clone = func(r *region.Region) *region.Region {
		if r == nil {
			return nil
		}
		if c, ok := copies[r]; ok {
			return c
		}
		c := &region.Region{Name: r.Name, N: r.N, W: r.W, Parent: clone(r.Parent)}
		copies[r] = c
		return c
	}
	out := make([]*region.Region, len(regs))
	for i, r := range regs {
		out[i] = clone(r)
	}
	return out
}

// identity renders a region's canonical identity the way the reference
// would: name, geometry and the whole parent chain.
func identity(r *region.Region) string {
	s := strconv.Quote(r.Name) + "!" + strconv.FormatInt(r.N, 10) + "!" + strconv.FormatInt(r.W, 10)
	if r.Parent != nil {
		s += "<" + identity(r.Parent)
	}
	return s
}

// The interval test that replaces parent-chain walks in the evaluator
// must agree with the walk on every pair of regions, for random forests
// touched through separately allocated copies of the same regions.
func TestIntervalsMatchParentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		regs := randomForest(rng)
		copies := cloneForest(regs)
		var seq pattern.Seq
		distinct := map[string]bool{}
		for i := range regs {
			r := regs[i]
			if rng.Intn(2) == 0 {
				r = copies[i]
			}
			seq = append(seq, pattern.STrav{R: r})
			distinct[identity(r)] = true
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		prog := mustCompile(t, seq)
		if got := prog.NumRegions(); got != len(distinct) {
			t.Fatalf("trial %d: NumRegions = %d, want %d distinct identities", trial, got, len(distinct))
		}
		table := prog.regions
		for a := range table {
			if p := table[a].Parent; p >= int32(a) {
				t.Fatalf("trial %d: region %d has parent %d, not an earlier index", trial, a, p)
			}
			for b := range table {
				want := ancestorOrSelfByWalk(table, int32(a), int32(b))
				if got := table[a].contains(&table[b]); got != want {
					t.Fatalf("trial %d: contains(%d, %d) = %v, parent walk says %v", trial, a, b, got, want)
				}
				related := want || ancestorOrSelfByWalk(table, int32(b), int32(a))
				if got := relatedToAny(prog, []int32{int32(a)}, &table[b]); got != related {
					t.Fatalf("trial %d: related(%d, %d) = %v, parent walk says %v", trial, a, b, got, related)
				}
			}
		}
	}
}
