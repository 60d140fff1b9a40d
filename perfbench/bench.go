package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/costmodel/server"
)

// clients is the closed loop's client count: optimizer callers block on
// each answer, and the benchmark host has two cores.
const clients = 2

// spanHeader carries the client's span id to the traced handler.
const spanHeader = "X-Perfbench-Span"

// instance is one in-process server behind a loopback listener.
type instance struct {
	srv    *server.Server
	url    string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
}

// startInstance starts a fresh server; wrap, if non-nil, wraps its
// handler (the traced run times the handler from outside).
func startInstance(cfg server.Config, wrap func(http.Handler) http.Handler) (*instance, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{
		srv:  srv,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(in.done)
		in.hs.Serve(ln)
	}()
	return in, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (in *instance) stop() {
	in.client.CloseIdleConnections()
	in.hs.Shutdown(context.Background())
	<-in.done
}

// reply is the compact, comparable digest of one answer.
type reply struct {
	served served
	// rank digests the plan count and the returned ranking (signatures
	// and cost bits); for a batch, every item's memory_ns bits.
	rank uint64
}

// served encodes PlanResponse.Served; batches have none.
type served uint8

const (
	servedNone served = iota
	servedCache
	servedRevalidated
	servedSearch
)

var servedNames = map[string]served{
	server.PlanServedCache:       servedCache,
	server.PlanServedRevalidated: servedRevalidated,
	server.PlanServedSearch:      servedSearch,
}

func (s served) String() string {
	return [...]string{"none", server.PlanServedCache, server.PlanServedRevalidated, server.PlanServedSearch}[s]
}

// send posts one request and digests the answer. span, if non-zero, is
// forwarded so a traced handler can parent its span.
func (in *instance) send(r request, span int32) (reply, error) {
	path, body := "/v1/plan", any(r.plan)
	if r.batch != nil {
		path, body = "/v1/evaluate", r.batch
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	hreq, err := http.NewRequest(http.MethodPost, in.url+path, bytes.NewReader(buf))
	if err != nil {
		return reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := in.client.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if r.batch != nil {
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return reply{}, fmt.Errorf("%s: decoding: %w", path, err)
		}
		if len(br.Results) != len(r.batch.Requests) {
			return reply{}, fmt.Errorf("%s: %d results for %d requests", path, len(br.Results), len(r.batch.Requests))
		}
		mem := make([]float64, len(br.Results))
		for k, res := range br.Results {
			if res == nil || res.Error != "" {
				return reply{}, fmt.Errorf("%s: item %d failed: %v", path, k, res)
			}
			mem[k] = res.MemoryNS
		}
		return batchReply(mem), nil
	}
	var pr server.PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return reply{}, fmt.Errorf("%s: decoding: %w", path, err)
	}
	if pr.Error != "" || len(pr.Ranking) == 0 {
		return reply{}, fmt.Errorf("%s: empty answer: %q", path, pr.Error)
	}
	sv, ok := servedNames[pr.Served]
	if !ok {
		return reply{}, fmt.Errorf("%s: unknown served class %q", path, pr.Served)
	}
	return planReply(sv, pr.Plans, pr.Ranking), nil
}

func planReply(sv served, plans int, ranking []server.RankedPlan) reply {
	return reply{served: sv, rank: digestRanking(plans, ranking)}
}

func batchReply(mem []float64) reply {
	h := fnv.New64a()
	for _, m := range mem {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(m)))
	}
	return reply{rank: h.Sum64()}
}

func digestRanking(plans int, ranking []server.RankedPlan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", plans)
	for _, p := range ranking {
		h.Write([]byte{0})
		h.Write([]byte(p.Plan))
		for _, v := range []float64{p.MemoryNS, p.CPUNS, p.TotalNS} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return h.Sum64()
}

// setUp starts a server and sends the workload's warm-up requests. It
// returns the instance and its set-up time.
func setUp(w *workload, wrap func(http.Handler) http.Handler) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := startInstance(w.cfg, wrap)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range w.warm {
		if _, err := in.send(r, 0); err != nil {
			in.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, time.Since(start), nil
}

// sample is one timed request of the closed loop, kept small: the
// records of a run stay live until its answers are checked.
type sample struct {
	lat    time.Duration
	rep    reply
	failed bool
}

// loopResult is one closed-loop phase.
type loopResult struct {
	samples  []sample // indexed by request index
	elapsed  time.Duration
	firstErr error
}

// closedLoop runs the workload's request sequence from index 0 on
// `clients` clients, each sending its next request as soon as the
// previous one completes, until the duration has passed. Requests are
// generated before their timer starts.
func closedLoop(in *instance, w *workload, d time.Duration) loopResult {
	type record struct {
		idx int
		sample
	}
	var next atomic.Int64
	per := make([][]record, clients)
	errs := make([]error, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := w.at(i)
				t0 := time.Now()
				rep, err := in.send(r, 0)
				per[c] = append(per[c], record{i, sample{lat: time.Since(t0), rep: rep, failed: err != nil}})
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
				}
			}
		}()
	}
	wg.Wait()
	// Every index handed out completed, so the records cover 0..n-1.
	res := loopResult{elapsed: time.Since(start), samples: make([]sample, next.Load())}
	for c := range clients {
		for _, r := range per[c] {
			res.samples[r.idx] = r.sample
		}
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
	}
	return res
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// serverStats snapshots the server's cache counters.
type serverStats struct {
	plan    server.PlanCacheStats
	result  server.ResultCacheStats
	compile server.CompileCacheStats
	dedup   server.BatchDedupStats
}

func (in *instance) stats() serverStats {
	return serverStats{in.srv.PlanCacheStats(), in.srv.ResultCacheStats(), in.srv.CompileCacheStats(), in.srv.BatchDedupStats()}
}

// minus returns the counter deltas since an earlier snapshot.
func (s serverStats) minus(o serverStats) serverStats {
	s.plan.Hits -= o.plan.Hits
	s.plan.Misses -= o.plan.Misses
	s.plan.Revalidations -= o.plan.Revalidations
	s.plan.RevalidationMisses -= o.plan.RevalidationMisses
	s.plan.Evictions -= o.plan.Evictions
	s.result.Hits -= o.result.Hits
	s.result.Misses -= o.result.Misses
	s.compile.Hits -= o.compile.Hits
	s.compile.Misses -= o.compile.Misses
	s.dedup.Hits -= o.dedup.Hits
	s.dedup.Misses -= o.dedup.Misses
	return s
}
