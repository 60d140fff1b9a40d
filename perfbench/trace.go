package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed layer call. Spans of one request share req; parent
// is the id of the enclosing span (0 for a root).
type span struct {
	name       string
	req        int32
	id, parent int32
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, req, parent int32) int32 {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, req: req, id: int32(len(t.spans) + 1), parent: parent, start: now})
	return int32(len(t.spans))
}

// len returns the number of spans recorded.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) end(id int32) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// wrap times the server's handler from outside: one "server" span per
// request, parented to the client's "http" span named in spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil || parent <= 0 {
			// An untraced request (the set-up's warm-up).
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		req := t.spans[parent-1].req
		t.mu.Unlock()
		id := t.begin("server", req, int32(parent))
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// write dumps the spans as tab-separated lines:
// req, id, parent, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayResult is the traced replay of a served prefix.
type replayResult struct {
	tr       *tracer
	n        int // requests replayed
	elapsed  time.Duration
	served   []reply // the traced server's answers
	mirrored []reply // the layer-call replay's answers
	m        *mirror
	in       *instance
	stats0   serverStats // the traced server's counters after set-up
}

// maxReplaySpans bounds the spans a replay keeps (about 50 bytes each
// in memory and in the dump).
const maxReplaySpans = 200_000

// replay sends the first n requests of the sequence one at a time to a
// freshly set-up server whose handler is traced, and after each one
// re-runs it through the mirror's layer calls with a span around each.
// It stops early once the time budget is spent or maxReplaySpans spans
// are recorded.
func replay(w *workload, n int, budget time.Duration) (*replayResult, error) {
	tr := newTracer()
	in, _, err := setUp(w, tr.wrap)
	if err != nil {
		return nil, err
	}
	m := &mirror{mirrorCaches: newMirrorCaches(w)}
	for _, r := range w.warm {
		if _, err := m.serve(r); err != nil {
			in.stop()
			return nil, fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	m.tr, m.searchPlans, m.compileInstrs, m.evalInstrs = tr, 0, 0, 0
	res := &replayResult{tr: tr, m: m, in: in, stats0: in.stats()}
	start := time.Now()
	for i := 0; i < n && (i == 0 || time.Since(start) < budget && tr.len() < maxReplaySpans); i++ {
		r := w.at(i)
		id := tr.begin("http", int32(i), 0)
		rep, err := in.send(r, id)
		tr.end(id)
		if err != nil {
			in.stop()
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		m.req, m.parent = int32(i), tr.begin("replay", int32(i), 0)
		mrep, err := m.serve(r)
		tr.end(m.parent)
		if err != nil {
			in.stop()
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		res.served = append(res.served, rep)
		res.mirrored = append(res.mirrored, mrep)
		res.n++
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// layerMetrics derives the per-layer metrics from the replay's spans,
// the traced server's cache counters, and the untraced phase's runtime
// statistics.
func layerMetrics(rr *replayResult, untraced loopResult, ms0, ms1 *runtime.MemStats) []metric {
	n := float64(rr.n)
	busy := map[string]time.Duration{}
	replayChildren := map[int32]time.Duration{} // per request: time in the mirror's top-level layer calls
	var httpTotal, serverTotal time.Duration
	serverOf := map[int32]time.Duration{}
	rootOf := map[int32]int32{} // replay span id per request
	for _, s := range rr.tr.spans {
		if s.name == "replay" {
			rootOf[s.req] = s.id
		}
	}
	for _, s := range rr.tr.spans {
		d := s.end - s.start
		switch s.name {
		case "http":
			httpTotal += d
		case "server":
			serverTotal += d
			serverOf[s.req] += d
		case "replay":
		default:
			busy[s.name] += d
			if s.parent == rootOf[s.req] {
				replayChildren[s.req] += d
			}
		}
	}
	var serverSelf time.Duration
	for req, d := range serverOf {
		serverSelf += d - replayChildren[req]
	}
	reqTime := float64(httpTotal) / n // mean request time, ns

	var out []metric
	// perReq emits a busy time as a per-request mean in unit, plus its
	// share of the mean request time.
	perReq := func(name string, d time.Duration, unit string) {
		scale := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
		sep := "."
		if strings.HasSuffix(name, ".self") {
			sep = "_"
		}
		out = append(out,
			metric{name + sep + unit + "_per_req", float64(d) / n / scale, unit},
			metric{name + ".share", float64(d) / n / reqTime, "ratio"})
	}
	isPlan := rr.served[0].served != servedNone
	perReq("http.self", httpTotal-serverTotal, "us")
	planSelf, evalSelf := serverSelf, time.Duration(0)
	if !isPlan {
		planSelf, evalSelf = 0, serverSelf
	}
	perReq("server.plan.self", planSelf, "us")
	perReq("server.evaluate.self", evalSelf, "us")

	st := rr.in.stats().minus(rr.stats0)
	out = append(out,
		metric{"server.plan_cache.hit_ratio", ratio(st.plan.Hits, st.plan.Hits+st.plan.Misses+st.plan.Revalidations+st.plan.RevalidationMisses), "ratio"},
		metric{"server.plan_cache.reval_ratio", ratio(st.plan.Revalidations, st.plan.Revalidations+st.plan.RevalidationMisses+st.plan.Misses), "ratio"},
		metric{"server.plan_cache.evictions_per_req", float64(st.plan.Evictions) / n, "count"},
		metric{"server.result_cache.hit_ratio", ratio(st.result.Hits, st.result.Hits+st.result.Misses), "ratio"},
		metric{"server.compile_cache.hit_ratio", ratio(st.compile.Hits, st.compile.Hits+st.compile.Misses), "ratio"},
		metric{"server.batch_dedup.hit_ratio", ratio(st.dedup.Hits, st.dedup.Hits+st.dedup.Misses), "ratio"},
	)

	perReq("queryplan.fingerprint", busy["queryplan.fingerprint"], "us")
	perReq("queryplan.bind", busy["queryplan.bind"], "us")
	perReq("queryplan.recipe", busy["queryplan.recipe"], "us")
	perReq("queryplan.search", busy["queryplan.search"], "ms")
	out = append(out, metric{"queryplan.search.plans_per_req", float64(rr.m.searchPlans) / n, "count"})
	perReq("queryplan.lower", busy["queryplan.lower"], "ms")
	perReq("planner.rescore", busy["planner.rescore"], "ms")
	perReq("costir.canonical", busy["costir.canonical"], "us")
	perReq("costir.compile", busy["costir.compile"], "ms")
	out = append(out, metric{"costir.compile.instrs_per_req", float64(rr.m.compileInstrs) / n, "count"})
	perReq("costir.eval", busy["costir.eval"], "ms")
	out = append(out, metric{"costir.eval.instrs_per_req", float64(rr.m.evalInstrs) / n, "count"})
	perReq("pattern.parse", busy["pattern.parse"], "us")

	un := float64(len(untraced.samples))
	out = append(out,
		metric{"runtime.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc) / un / 1024, "kB"},
		metric{"runtime.gc_per_kreq", float64(ms1.NumGC-ms0.NumGC) / un * 1000, "1/kreq"},
		metric{"trace.untraced_rps", un / untraced.elapsed.Seconds(), "1/s"},
		metric{"trace.traced_rps", n / rr.elapsed.Seconds(), "1/s"},
		metric{"trace.requests", n, "count"},
	)
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
