package cost_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// BenchmarkEvaluate is the cost-IR headline benchmark: the recursive
// tree walker (Model.EvaluateTree, the test-only reference oracle)
// against the compiled flat-IR evaluator (costir.Program.Evaluate) on
// representative compound patterns. The CI bench smoke job parses this
// benchmark's output into BENCH_eval.json (see cmd/benchjson); the
// acceptance bar is 0 allocs/op and ≥5x throughput for the IR
// evaluator on the hash-join pattern.
func BenchmarkEvaluate(b *testing.B) {
	h := hardware.Origin2000()
	model := cost.MustNew(h)
	n := int64(1 << 20)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	hr := engine.HashRegionFor("H", n)
	patterns := []struct {
		name string
		p    pattern.Pattern
	}{
		{"hashjoin", engine.HashJoinPattern(u, v, hr, w)},
		{"quicksort", engine.QuickSortPattern(u, 32<<10)},
		{"partitioned256", engine.PartitionedHashJoinPattern(u, v, w, 256)},
	}
	for _, tc := range patterns {
		b.Run("tree/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.EvaluateTree(tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ir/"+tc.name, func(b *testing.B) {
			prog, err := costir.Compile(tc.p)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]costir.Misses, 0, len(h.Levels))
			prog.Evaluate(h, dst) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = prog.Evaluate(h, dst)
			}
		})
	}
}
