// Command benchjson converts `go test -bench -benchmem` output on
// stdin into the BENCH_eval.json / BENCH_plan.json schema on stdout:
// one record per benchmark (ns/op, B/op, allocs/op) plus speedup
// sections — each Evaluate/tree/<pattern> paired with its
// Evaluate/ir/<pattern> counterpart, and each
// PlanSearch/exhaustive/<scenario> paired with its
// PlanSearch/dp/<scenario> counterpart. CI runs it after the bench
// smoke jobs and uploads the results as artifacts; the first snapshots
// are committed at the repo root. BenchmarkEvaluate lives in
// internal/cost, next to the tree-walker oracle it times; the other
// benchmarks live at the repo root. Concatenated outputs of several
// go test runs parse as one report.
//
//	(go test -run '^$' -bench 'BenchmarkEvaluate$' -benchmem ./internal/cost;
//	 go test -run '^$' -bench 'BenchmarkSweepGrid$' -benchmem .) | go run ./cmd/benchjson > BENCH_eval.json
//	go test -run '^$' -bench 'BenchmarkPlanSearch' -benchmem . | go run ./cmd/benchjson > BENCH_plan.json
//
// With -check, the acceptance bar of the cost IR is enforced: every
// /ir/ benchmark must report 0 allocs/op, and every pattern must show
// at least its speedup floor over the tree walker (checkMinSpeedups:
// each floor is about half the committed snapshot's ratio, leaving
// headroom for noisy CI runners). With -checkplan, the plan
// search's bar is enforced instead: every scenario must carry a
// speedup — exhaustive-vs-DP on the 4-relation chain, cold-vs-warm on
// the DP-only scenarios — and every speedup must exceed 1x. With
// -snapshot <file>, the warm DP time of each reference scenario
// (join8-chain, join12-chain) is additionally compared against the
// committed BENCH_plan.json: past 1.25x the snapshot is a regression.
// Violations exit non-zero so the bench-smoke job fails instead of
// silently uploading a regression.
//
// With -checksweep, the grid-sweep bar is enforced: the
// SweepGrid/loop / SweepGrid/sweep / SweepGrid/sweepwarm trio must be
// present, the warm sweep must report 0 allocs/op, and the warm sweep
// must be at least 5x faster than the point-at-a-time loop (the
// committed snapshot records ~10x).
//
// -checkvalidate <file> is a standalone mode (nothing read from
// stdin): it opens a committed BENCH_validate.json and asserts the
// analytical-backend contract — backend "analytical", a cross-check
// section present with every operator inside its committed tolerance,
// and the analytical-vs-trace speedup at or above 10x.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Acceptance thresholds enforced by -check: the minimum tree-vs-IR
// speedup per BenchmarkEvaluate pattern. hashjoin is the representative
// compound pattern; quicksort and partitioned256 carry the deep
// sub-region chains whose per-entry cost the IR keeps independent of
// depth.
var checkMinSpeedups = []struct {
	pattern string
	min     float64
}{
	{"hashjoin", 5},
	{"quicksort", 9},      // 14-20x measured
	{"partitioned256", 7}, // 14-17x measured
}

// Acceptance requirements enforced by -checkplan: the scenario where DP
// must beat the exhaustive enumerator, and the DP-only scenarios that
// must each carry a cold-vs-warm speedup.
const checkPlanScenario = "join4-chain"

var checkPlanDPOnly = []string{"join7-star", "join8-chain", "join10-star", "join12-chain"}

// Snapshot regression bounds enforced by -snapshot: each reference
// scenario's warm DP time may not exceed the committed snapshot's by
// more than the tolerance factor. join12-chain is the shape of most
// requests in the serving benchmark's plan-search workload.
var snapshotScenarios = []string{"join8-chain", "join12-chain"}

const snapshotTolerance = 1.25

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Speedup pairs the tree walker and IR evaluator on one pattern.
type Speedup struct {
	Pattern       string  `json:"pattern"`
	TreeNsPerOp   float64 `json:"tree_ns_per_op"`
	IRNsPerOp     float64 `json:"ir_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	IRAllocsPerOp float64 `json:"ir_allocs_per_op"`
}

// Acceptance thresholds enforced by -checksweep: the warm grid sweep
// must beat the point-at-a-time validation loop by this factor with
// zero steady-state allocations.
const checkSweepMinSpeedup = 5.0

// SweepSpeedup compares the grid-sweep evaluator against the
// point-at-a-time validation loop on the full analytical grid
// (BenchmarkSweepGrid). Speedup is loop over warm sweep — the steady
// state that carries the committed contract; ColdSpeedup is loop over
// the end-to-end sweep including grid preparation.
type SweepSpeedup struct {
	LoopNsPerOp     float64 `json:"loop_ns_per_op"`
	SweepNsPerOp    float64 `json:"sweep_ns_per_op"`
	WarmNsPerOp     float64 `json:"warm_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	ColdSpeedup     float64 `json:"cold_speedup,omitempty"`
	WarmAllocsPerOp float64 `json:"warm_allocs_per_op"`
}

// PlanSpeedup pairs a baseline with the warm DP search on one
// scenario: the exhaustive enumerator where it can run (join4-chain),
// the cold-cache DP search on the DP-only scenarios. Speedup is
// baseline over warm DP — exhaustive/dp or dpcold/dp respectively —
// and omitted only if no baseline was measured.
type PlanSpeedup struct {
	Scenario          string  `json:"scenario"`
	ExhaustiveNsPerOp float64 `json:"exhaustive_ns_per_op,omitempty"`
	ColdNsPerOp       float64 `json:"cold_ns_per_op,omitempty"`
	DPNsPerOp         float64 `json:"dp_ns_per_op"`
	DPAllocsPerOp     float64 `json:"dp_allocs_per_op,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
}

// Report is the BENCH_eval.json / BENCH_plan.json schema.
type Report struct {
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []Benchmark   `json:"benchmarks"`
	Speedups   []Speedup     `json:"speedups,omitempty"`
	PlanSearch []PlanSpeedup `json:"plan_speedups,omitempty"`
	Sweep      *SweepSpeedup `json:"sweep_speedup,omitempty"`
}

func main() {
	check := flag.Bool("check", false,
		"fail unless every /ir/ benchmark has 0 allocs/op and every pattern meets its tree-vs-IR speedup floor")
	checkPlan := flag.Bool("checkplan", false,
		"fail unless every plan-search scenario reports a >1x speedup over its baseline "+
			"(exhaustive on "+checkPlanScenario+", cold cache on the DP-only scenarios)")
	snapshot := flag.String("snapshot", "",
		"committed BENCH_plan.json to compare against; fail if the warm DP time of "+
			strings.Join(snapshotScenarios, " or ")+" regresses past "+fmt.Sprintf("%.2f", snapshotTolerance)+"x")
	checkSweep := flag.Bool("checksweep", false,
		"fail unless the warm grid sweep beats the point-at-a-time loop by ≥ "+
			fmt.Sprintf("%.0f", checkSweepMinSpeedup)+"x with 0 allocs/op")
	checkValidate := flag.String("checkvalidate", "",
		"standalone mode: check a committed BENCH_validate.json (analytical backend, "+
			"passing cross-check, ≥10x speedup) and exit; stdin is not read")
	flag.Parse()
	if *checkValidate != "" {
		if err := checkValidateFile(*checkValidate); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s passes the analytical-backend contract\n", *checkValidate)
		return
	}
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *check {
		if err := rep.checkAcceptance(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *checkPlan {
		if err := rep.checkPlanAcceptance(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *checkSweep {
		if err := rep.checkSweepAcceptance(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *snapshot != "" {
		if err := rep.checkSnapshot(*snapshot); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// checkAcceptance enforces the cost-IR acceptance bar on the parsed
// report.
func (rep *Report) checkAcceptance() error {
	for _, b := range rep.Benchmarks {
		if strings.Contains(b.Name, "/ir/") && b.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %.1f objects/op, want 0", b.Name, b.AllocsPerOp)
		}
	}
	speedups := map[string]float64{}
	for _, s := range rep.Speedups {
		speedups[s.Pattern] = s.Speedup
	}
	for _, c := range checkMinSpeedups {
		got, ok := speedups[c.pattern]
		if !ok {
			return fmt.Errorf("no %s tree/ir pair in the benchmark output", c.pattern)
		}
		if got < c.min {
			return fmt.Errorf("%s speedup %.2fx below the %.0fx acceptance bar", c.pattern, got, c.min)
		}
	}
	return nil
}

// checkPlanAcceptance enforces the plan-search acceptance bar: DP
// strictly faster than exhaustive on the reference chain, and every
// DP-only scenario measured with a >1x cold-vs-warm speedup (a warm
// search no faster than a cold one means geometry interning broke).
func (rep *Report) checkPlanAcceptance() error {
	byScenario := map[string]PlanSpeedup{}
	for _, s := range rep.PlanSearch {
		byScenario[s.Scenario] = s
	}
	ref, ok := byScenario[checkPlanScenario]
	if !ok || ref.ExhaustiveNsPerOp <= 0 {
		return fmt.Errorf("no exhaustive/dp pair for %s in the benchmark output", checkPlanScenario)
	}
	if ref.Speedup <= 1 {
		return fmt.Errorf("DP search is not faster than the exhaustive enumerator on %s (%.2fx)",
			checkPlanScenario, ref.Speedup)
	}
	for _, name := range checkPlanDPOnly {
		s, ok := byScenario[name]
		if !ok || s.DPNsPerOp <= 0 {
			return fmt.Errorf("DP-only scenario %s missing from the benchmark output", name)
		}
		if s.ColdNsPerOp <= 0 {
			return fmt.Errorf("DP-only scenario %s has no cold-cache baseline (dpcold benchmark missing)", name)
		}
		if s.Speedup <= 1 {
			return fmt.Errorf("warm DP search is not faster than a cold one on %s (%.2fx): geometry interning is not paying off", name, s.Speedup)
		}
	}
	return nil
}

// checkSweepAcceptance enforces the grid-sweep acceptance bar: the
// warm sweep carries zero steady-state allocations and at least the
// committed speedup over the point-at-a-time loop.
func (rep *Report) checkSweepAcceptance() error {
	s := rep.Sweep
	if s == nil || s.LoopNsPerOp <= 0 || s.WarmNsPerOp <= 0 {
		return fmt.Errorf("no SweepGrid loop/sweepwarm pair in the benchmark output")
	}
	if s.WarmAllocsPerOp != 0 {
		return fmt.Errorf("warm grid sweep allocates %.1f objects/op, want 0", s.WarmAllocsPerOp)
	}
	if s.Speedup < checkSweepMinSpeedup {
		return fmt.Errorf("warm grid sweep speedup %.2fx below the %.0fx acceptance bar",
			s.Speedup, checkSweepMinSpeedup)
	}
	return nil
}

// checkSnapshot compares each reference scenario's warm DP time
// against a committed BENCH_plan.json and fails past the tolerance
// factor.
func (rep *Report) checkSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading snapshot: %w", err)
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("parsing snapshot %s: %w", path, err)
	}
	warmDP := func(r *Report, scenario string) float64 {
		for _, s := range r.PlanSearch {
			if s.Scenario == scenario {
				return s.DPNsPerOp
			}
		}
		return 0
	}
	for _, sc := range snapshotScenarios {
		oldNs := warmDP(&old, sc)
		if oldNs <= 0 {
			return fmt.Errorf("snapshot %s has no warm DP time for %s", path, sc)
		}
		ns := warmDP(rep, sc)
		if ns <= 0 {
			return fmt.Errorf("no warm DP time for %s in the benchmark output", sc)
		}
		if ns > oldNs*snapshotTolerance {
			return fmt.Errorf("%s warm DP search regressed: %.0f ns/op vs %.0f ns/op in the snapshot (allowed %.2fx)",
				sc, ns, oldNs, snapshotTolerance)
		}
	}
	return nil
}

// validateMinSpeedup mirrors the floor `costmodel validate -check`
// enforces when it writes the file; checking it again here keeps the
// committed artifact honest even if it was hand-edited.
const validateMinSpeedup = 10.0

// checkValidateFile asserts the analytical-backend contract on a
// committed BENCH_validate.json: the sweep was measured analytically,
// a cross-check against the trace oracle is present and passing for
// every operator, and the recorded speedup clears the committed floor.
func checkValidateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading validation snapshot: %w", err)
	}
	var rep struct {
		Backend    string `json:"backend"`
		Operators  []any  `json:"operators"`
		CrossCheck *struct {
			Speedup   float64 `json:"speedup"`
			Pass      bool    `json:"pass"`
			Operators []struct {
				Operator         string  `json:"operator"`
				MeanDisagreement float64 `json:"mean_disagreement"`
				Tolerance        float64 `json:"tolerance"`
				Pass             bool    `json:"pass"`
			} `json:"operators"`
		} `json:"cross_check"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Backend != "analytical" {
		return fmt.Errorf("%s was measured with the %q backend, want analytical", path, rep.Backend)
	}
	if len(rep.Operators) == 0 {
		return fmt.Errorf("%s records no operators", path)
	}
	cc := rep.CrossCheck
	if cc == nil {
		return fmt.Errorf("%s has no cross_check section; regenerate with -crosscheck", path)
	}
	if len(cc.Operators) == 0 {
		return fmt.Errorf("%s cross-check covers no operators", path)
	}
	for _, op := range cc.Operators {
		if !op.Pass {
			return fmt.Errorf("%s: operator %s disagreement %.4f exceeds its committed tolerance %.2f",
				path, op.Operator, op.MeanDisagreement, op.Tolerance)
		}
	}
	if !cc.Pass {
		return fmt.Errorf("%s cross-check recorded as failing", path)
	}
	if cc.Speedup < validateMinSpeedup {
		return fmt.Errorf("%s analytical speedup %.1fx below the committed %.0fx floor",
			path, cc.Speedup, validateMinSpeedup)
	}
	return nil
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Speedups = speedups(rep.Benchmarks)
	rep.PlanSearch = planSpeedups(rep.Benchmarks)
	rep.Sweep = sweepSpeedup(rep.Benchmarks)
	return rep, nil
}

// sweepSpeedup derives the grid-sweep comparison from the
// SweepGrid/loop, SweepGrid/sweep and SweepGrid/sweepwarm trio, or
// returns nil when the trio was not benchmarked.
func sweepSpeedup(benches []Benchmark) *SweepSpeedup {
	var loop, cold, warm Benchmark
	for _, b := range benches {
		switch {
		case strings.HasSuffix(b.Name, "SweepGrid/loop"):
			loop = b
		case strings.HasSuffix(b.Name, "SweepGrid/sweep"):
			cold = b
		case strings.HasSuffix(b.Name, "SweepGrid/sweepwarm"):
			warm = b
		}
	}
	if loop.NsPerOp <= 0 || warm.NsPerOp <= 0 {
		return nil
	}
	s := &SweepSpeedup{
		LoopNsPerOp:     loop.NsPerOp,
		SweepNsPerOp:    cold.NsPerOp,
		WarmNsPerOp:     warm.NsPerOp,
		Speedup:         loop.NsPerOp / warm.NsPerOp,
		WarmAllocsPerOp: warm.AllocsPerOp,
	}
	if cold.NsPerOp > 0 {
		s.ColdSpeedup = loop.NsPerOp / cold.NsPerOp
	}
	return s
}

// parseBenchLine parses e.g.
//
//	BenchmarkEvaluate/ir/hashjoin-8  849340  1291 ns/op  0 B/op  0 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iter}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}

// speedups pairs <prefix>/tree/<pattern> with <prefix>/ir/<pattern>.
func speedups(benches []Benchmark) []Speedup {
	tree := map[string]Benchmark{}
	ir := map[string]Benchmark{}
	var order []string
	for _, b := range benches {
		switch {
		case strings.Contains(b.Name, "/tree/"):
			key := b.Name[strings.Index(b.Name, "/tree/")+len("/tree/"):]
			tree[key] = b
			order = append(order, key)
		case strings.Contains(b.Name, "/ir/"):
			ir[b.Name[strings.Index(b.Name, "/ir/")+len("/ir/"):]] = b
		}
	}
	var out []Speedup
	for _, key := range order {
		tb, irb := tree[key], ir[key]
		if irb.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Pattern:       key,
			TreeNsPerOp:   tb.NsPerOp,
			IRNsPerOp:     irb.NsPerOp,
			Speedup:       tb.NsPerOp / irb.NsPerOp,
			IRAllocsPerOp: irb.AllocsPerOp,
		})
	}
	return out
}

// planSpeedups pairs <prefix>/dp/<scenario> with its baseline:
// <prefix>/exhaustive/<scenario> where present, else
// <prefix>/dpcold/<scenario>.
func planSpeedups(benches []Benchmark) []PlanSpeedup {
	exhaustive := map[string]Benchmark{}
	cold := map[string]Benchmark{}
	dp := map[string]Benchmark{}
	var order []string
	suffix := func(name, sep string) (string, bool) {
		i := strings.Index(name, sep)
		if i < 0 {
			return "", false
		}
		return name[i+len(sep):], true
	}
	for _, b := range benches {
		if key, ok := suffix(b.Name, "/exhaustive/"); ok {
			exhaustive[key] = b
		}
		if key, ok := suffix(b.Name, "/dpcold/"); ok {
			cold[key] = b
		}
		if key, ok := suffix(b.Name, "/dp/"); ok {
			dp[key] = b
			order = append(order, key)
		}
	}
	var out []PlanSpeedup
	for _, key := range order {
		db := dp[key]
		if db.NsPerOp <= 0 {
			continue
		}
		s := PlanSpeedup{Scenario: key, DPNsPerOp: db.NsPerOp, DPAllocsPerOp: db.AllocsPerOp}
		if eb, ok := exhaustive[key]; ok && eb.NsPerOp > 0 {
			s.ExhaustiveNsPerOp = eb.NsPerOp
			s.Speedup = eb.NsPerOp / db.NsPerOp
		} else if cb, ok := cold[key]; ok && cb.NsPerOp > 0 {
			s.ColdNsPerOp = cb.NsPerOp
			s.Speedup = cb.NsPerOp / db.NsPerOp
		}
		out = append(out, s)
	}
	return out
}
