package cost

import (
	"repro/internal/costmath"
	"repro/internal/pattern"
	"repro/internal/region"
)

// This file is the tree walker's basic-pattern dispatch (test code: see
// oracle_test.go): each basic pattern goes to its Section-4 cache-miss
// formula (Eqs. 4.2 through 4.9). The arithmetic itself lives in
// internal/costmath — one leaf package shared with the flat-IR
// evaluator (internal/costir) so the two evaluators cannot drift apart
// formula-by-formula. The thin wrappers below adapt the shared kernel
// to the walker's *region.Region plumbing and keep the original names
// the unit tests exercise.

// linesPerItem returns the expected number of cache lines of size B that
// an access to u consecutive bytes touches (the paper's Eq. 4.3/4.5
// term).
func linesPerItem(u, b float64) float64 { return costmath.LinesPerItem(u, b) }

// linesCovered returns |R|_B = ⌈‖R‖ / B⌉.
func linesCovered(r *region.Region, b float64) float64 {
	return costmath.LinesCovered(r.Size(), b)
}

// used resolves the bytes-used parameter (0 means the full item width).
func used(u int64, r *region.Region) float64 {
	return float64(pattern.Used(u, r))
}

// gapSmall reports whether the untouched gap between adjacent accesses is
// smaller than a cache line: R.w − u < B.
func gapSmall(r *region.Region, u, b float64) bool {
	return costmath.GapSmall(r.W, u, b)
}

// sTravCount returns the miss count of a single sequential traversal
// (Eqs. 4.2 and 4.3).
func sTravCount(lp levelParams, r *region.Region, u int64) float64 {
	return costmath.STravCount(lp, r.N, r.W, used(u, r))
}

// rTravCount returns the miss count of a single random traversal
// (Eqs. 4.4 and 4.5).
func rTravCount(lp levelParams, r *region.Region, u int64) float64 {
	return costmath.RTravCount(lp, r.N, r.W, used(u, r))
}

// rsTravCount returns the miss count of a repetitive sequential traversal
// (Eq. 4.6) given the single-traversal count m0.
func rsTravCount(lp levelParams, m0 float64, repeats int64, dir pattern.Direction) float64 {
	return costmath.RSTravCount(lp, m0, repeats, dir)
}

// rrTravCount returns the miss count of a repetitive random traversal
// (Eq. 4.7) given the single-traversal count m0.
func rrTravCount(lp levelParams, m0 float64, repeats int64) float64 {
	return costmath.RRTravCount(lp, m0, repeats)
}

// rAccLines returns the expected number of distinct cache lines ℓ
// touched by r_acc (the Section 4.6 derivation).
func rAccLines(lp levelParams, r *region.Region, u, count int64) float64 {
	return costmath.RAccLines(lp, r.N, r.W, used(u, r), count)
}

// rAccCount returns the miss count of r_acc (Eq. 4.8 and the preceding
// derivation in Section 4.6).
func rAccCount(lp levelParams, r *region.Region, u, count int64) float64 {
	return costmath.RAccCount(lp, r.N, r.W, used(u, r), count)
}

// nestMisses returns the misses of an interleaved multi-cursor access
// (Section 4.7, Eq. 4.9).
func nestMisses(lp levelParams, p pattern.Nest) Misses {
	return costmath.NestCounts(lp, p.R.N, p.R.W, used(p.U, p.R), p.M, p.Inner, p.Count, p.Order, p.NoSeq)
}

// classify wraps a raw miss count into a Misses pair according to
// whether the pattern achieves sequential latency.
func classify(count float64, seq bool) Misses {
	return costmath.Classify(count, seq)
}

// basicMisses dispatches a basic pattern to its Section-4 formula,
// ignoring cache state (cold-cache counts).
func basicMisses(lp levelParams, p pattern.Pattern) Misses {
	switch q := p.(type) {
	case pattern.STrav:
		return classify(sTravCount(lp, q.R, q.U), !q.NoSeq)
	case pattern.RSTrav:
		m0 := sTravCount(lp, q.R, q.U)
		return classify(rsTravCount(lp, m0, q.Repeats, q.Dir), !q.NoSeq)
	case pattern.RTrav:
		return Misses{Rnd: rTravCount(lp, q.R, q.U)}
	case pattern.RRTrav:
		m0 := rTravCount(lp, q.R, q.U)
		return Misses{Rnd: rrTravCount(lp, m0, q.Repeats)}
	case pattern.RAcc:
		return Misses{Rnd: rAccCount(lp, q.R, q.U, q.Count)}
	case pattern.Nest:
		return nestMisses(lp, q)
	default:
		panic("cost: basicMisses called with compound pattern")
	}
}
