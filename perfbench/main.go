// Command perfbench is the repository's end-to-end serving benchmark: it
// starts the in-process cost-model server on a loopback listener and
// drives one named workload as a closed loop of two clients, then checks
// every answer against a reference computed through the layer functions.
// With -trace 1 it also replays the served sequence against a second,
// traced server and through the layer functions with a span around each
// call, and reports per-layer metrics instead. See README.md.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
	"unsafe"
)

// setups is how many times a run sets a server up; setup_s is the
// median. The DP step cache is process-global, so the first set-up
// also pays its one-time warm-up and the median is a re-set-up: server
// start plus plan-cache prefill on a warm step cache.
const setups = 5

// replayBudget bounds the traced replay's wall time, in units of the
// timed phase. The replay sends one request at a time and runs each
// twice (server and layer calls), so it covers about a quarter of the
// timed phase's requests per unit.
const replayBudget = 3

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := flag.Uint64("seed", 1, "seed of the generated request sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed closed-loop phase")
	traced := flag.Int("trace", 0, "1: replay with per-layer spans and report per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// run sets the server up, runs the timed closed loop, checks every
// answer and, when traced, replays the sequence with spans.
func run(w *workload, seed uint64, d time.Duration, traced bool) (result, error) {
	var in *instance
	setupS := make([]float64, setups)
	for k := range setups {
		if in != nil {
			in.stop()
		}
		var took time.Duration
		var err error
		if in, took, err = setUp(w, nil); err != nil {
			return result{}, err
		}
		setupS[k] = took.Seconds()
		logf("set-up %d/%d: %.3fs", k+1, setups, setupS[k])
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	loop := closedLoop(in, w, d)
	runtime.ReadMemStats(&ms1)
	// Two collections: the second also frees what sync.Pools (the IR
	// evaluator's scratch buffers) held over the first. The benchmark's
	// own per-request records are not the server's heap.
	runtime.GC()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	heapMB := float64(heap.HeapAlloc-uint64(cap(loop.samples))*uint64(unsafe.Sizeof(sample{}))) / (1 << 20)
	in.stop()
	n := len(loop.samples)
	if n == 0 {
		return result{}, fmt.Errorf("no request completed in %v", d)
	}

	checkStart := time.Now()
	v, err := check(w, loop)
	if err != nil {
		return result{}, fmt.Errorf("checking answers: %w", err)
	}
	logf("checked %d answers in %.2fs", n, time.Since(checkStart).Seconds())
	lats := make([]time.Duration, n)
	served := map[served]int{}
	for k, s := range loop.samples {
		lats[k] = s.lat
		served[s.rep.served]++
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })

	fmt.Printf("workload %s seed %d: %d requests in %.2fs on %d closed-loop clients\n",
		w.name, seed, n, loop.elapsed.Seconds(), clients)
	if served[servedNone] != n {
		fmt.Printf("served: cache %d, revalidated %d, search %d (winner flips %d)\n",
			served[servedCache], served[servedRevalidated], served[servedSearch], v.flips)
	}
	fmt.Printf("error_rate %.6f (%d failed or refused, %d wrong of %d)\n",
		float64(v.failed())/float64(n), v.errors, v.wrong, n)
	if v.first != "" {
		fmt.Println("first failure:", v.first)
	}
	res := result{correct: v.failed() == 0, attempted: n, failed: v.failed()}
	e2e := []metric{
		{"throughput_rps", float64(n) / loop.elapsed.Seconds(), "1/s"},
		{"p50_ms", float64(quantile(lats, 0.50)) / 1e6, "ms"},
		{"p99_ms", float64(quantile(lats, 0.99)) / 1e6, "ms"},
		{"setup_s", median(setupS), "s"},
		{"heap_mb", heapMB, "MB"},
	}
	for _, m := range e2e {
		count := n
		if m.name == "setup_s" {
			count = setups
		}
		fmt.Printf("  %-16s %12.4f %-4s (n=%d)\n", m.name, m.value, m.unit, count)
	}
	if !traced {
		res.metrics = e2e
		return res, nil
	}

	rr, err := replay(w, n, replayBudget*d)
	if err != nil {
		return result{}, err
	}
	defer rr.in.stop()
	bad := faithfulness(w, rr, loop)
	fmt.Printf("traced replay: %d requests in %.2fs, %d answers differ from the served ones\n",
		rr.n, rr.elapsed.Seconds(), bad)
	res.correct = res.correct && bad == 0
	res.metrics = layerMetrics(rr, loop, &ms0, &ms1)
	for _, m := range res.metrics {
		fmt.Printf("  %-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
	if err := rr.tr.write(spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(rr.tr.spans), spans)
	return res, nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// faithfulness counts replayed requests whose layer-call answer differs
// from the traced server's, served class included, or, except on
// plan-drift, from the closed loop's. A plan-drift answer depends on
// which cache entry the request met, which the closed loop's two
// clients interleave differently; check verifies those answers.
func faithfulness(w *workload, rr *replayResult, loop loopResult) int {
	bad := 0
	for i := range rr.n {
		mr := rr.mirrored[i]
		if mr != rr.served[i] || (w.name != "plan-drift" && mr.rank != loop.samples[i].rep.rank) {
			bad++
		}
	}
	return bad
}
