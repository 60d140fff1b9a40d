package main

import (
	"fmt"
	"sync"
)

// Correctness: after the timed phase, every answer is compared with a
// reference computed through the layer functions (the mirror), bit for
// bit. Per workload:
//
//   - plan-hit: the full returned ranking and plan count, and served
//     "cache";
//   - plan-search: the full returned ranking and plan count, served
//     "search" or "cache";
//   - plan-drift: the full returned ranking, against the serving
//     contract's answer from the entry the request met (see checkDrift);
//     served "revalidated", or "search" for a winner flip (counted);
//   - evaluate-batch: every item's memory_ns.

// verdict counts the failures of a closed-loop phase.
type verdict struct {
	errors int // requests that failed or were refused
	wrong  int // answers that differ from the reference
	flips  int // plan-drift answers served by a full re-search
	first  string
}

func (v *verdict) failed() int { return v.errors + v.wrong }

func (v *verdict) note(format string, args ...any) {
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// check verifies a closed-loop phase's answers.
func check(w *workload, loop loopResult) (verdict, error) {
	var v verdict
	samples := loop.samples
	if loop.firstErr != nil {
		v.note("%v", loop.firstErr)
	}
	ok := make([]bool, len(samples))
	var err error
	switch w.name {
	case "plan-hit":
		err = checkMemo(w, samples, ok, false, func(exp, got reply) bool {
			return got.served == servedCache && got.rank == exp.rank
		})
	case "plan-search":
		err = checkMemo(w, samples, ok, true, func(exp, got reply) bool {
			return (got.served == servedSearch || got.served == servedCache) && got.rank == exp.rank
		})
	case "plan-drift":
		err = checkDrift(w, samples, ok)
	case "evaluate-batch":
		err = checkBatches(w, samples, ok)
	}
	if err != nil {
		return v, err
	}
	for k, s := range samples {
		switch {
		case s.failed:
			v.errors++
		case !ok[k]:
			v.wrong++
			v.note("request %d: answer differs from the reference (served %v)", k, s.rep.served)
		}
		if !s.failed && w.name == "plan-drift" && s.rep.served == servedSearch {
			v.flips++
		}
	}
	return v, nil
}

// warmMirror returns mirror caches holding the workload's warm-up
// state, as the server holds it after set-up.
func warmMirror(w *workload) (*mirrorCaches, error) {
	mc := newMirrorCaches(w)
	m := &mirror{mirrorCaches: mc}
	for _, r := range w.warm {
		if _, err := m.serve(r); err != nil {
			return nil, fmt.Errorf("reference warm-up: %w", err)
		}
	}
	return mc, nil
}

// checkMemo checks workloads whose answer depends only on the request's
// ref: one reference answer per distinct ref. cold references search
// on an empty cache; otherwise they are served from the warm-up state.
func checkMemo(w *workload, samples []sample, ok []bool, cold bool, match func(exp, got reply) bool) error {
	mc := newMirrorCaches(w)
	if !cold {
		var err error
		if mc, err = warmMirror(w); err != nil {
			return err
		}
	}
	firstOf := map[int]int{} // ref -> first request index
	var refs []int
	for k := range samples {
		if ref := w.at(k).ref; !seen(firstOf, ref) {
			firstOf[ref] = k
			refs = append(refs, ref)
		}
	}
	exp := make([]reply, len(refs))
	err := parallel(len(refs), func(m *mirror, j int) error {
		var err error
		exp[j], err = m.serve(w.at(firstOf[refs[j]]))
		return err
	}, mc, cold)
	if err != nil {
		return err
	}
	expOf := make(map[int]reply, len(refs))
	for j, r := range refs {
		expOf[r] = exp[j]
	}
	for k, s := range samples {
		ok[k] = !s.failed && match(expOf[w.at(k).ref], s.rep)
	}
	return nil
}

func seen(m map[int]int, k int) bool {
	_, ok := m[k]
	return ok
}

// checkDrift checks plan-drift answers against the serving contract
// (docs/serving.md): a drifted request is answered by re-scoring the
// shape's cached entry if its winner keeps the top spot, else by a full
// search that replaces the entry. Which entry a request met depends on
// how the two clients interleaved, but every entry is observable: the
// pre-searched one, and one per answer served "search" (the re-search
// of that request's query). A revalidated answer must equal the
// re-score against one of its shape's entries that existed before it,
// newest first; a searched answer must equal the full search.
func checkDrift(w *workload, samples []sample, ok []bool) error {
	mc, err := warmMirror(w)
	if err != nil {
		return err
	}
	type version struct {
		idx int
		e   *planEntry
	}
	versions := map[string][]version{}
	for _, r := range w.warm {
		key, err := cacheKey(r.plan)
		if err != nil {
			return err
		}
		e, _ := mc.plans.get(key)
		versions[key] = []version{{-1, e}}
	}
	var flips []int
	for k, s := range samples {
		if !s.failed && s.rep.served == servedSearch {
			flips = append(flips, k)
		}
	}
	flipped := make([]*planEntry, len(flips))
	answers := make([]reply, len(flips))
	if err := parallel(len(flips), func(m *mirror, j int) error {
		var err error
		flipped[j], answers[j], err = m.entry(w.at(flips[j]).plan)
		return err
	}, newMirrorCaches(w), true); err != nil {
		return err
	}
	for j, k := range flips {
		key, err := cacheKey(w.at(k).plan)
		if err != nil {
			return err
		}
		versions[key] = append(versions[key], version{k, flipped[j]})
		ok[k] = answers[j].rank == samples[k].rep.rank
	}
	return parallel(len(samples), func(m *mirror, k int) error {
		s := samples[k]
		if s.failed || s.rep.served != servedRevalidated {
			return nil
		}
		req := w.at(k).plan
		key, err := cacheKey(req)
		if err != nil {
			return err
		}
		vs := versions[key]
		for v := len(vs) - 1; v >= 0 && !ok[k]; v-- {
			if vs[v].idx >= k {
				continue
			}
			exp, held, err := m.revalidate(req, vs[v].e)
			if err != nil {
				return err
			}
			ok[k] = held && exp.rank == s.rep.rank
		}
		return nil
	}, mc, true)
}

// checkBatches checks every batch item's memory_ns against one
// reference evaluation per pool member.
func checkBatches(w *workload, samples []sample, ok []bool) error {
	memOf := map[int]float64{}
	for k := range samples {
		r := w.at(k)
		for j, ref := range r.itemRefs {
			if _, seen := memOf[ref]; seen {
				continue
			}
			mem, err := (&mirror{}).evalOne(r.batch.Requests[j])
			if err != nil {
				return err
			}
			memOf[ref] = mem
		}
	}
	for k, s := range samples {
		r := w.at(k)
		mem := make([]float64, len(r.itemRefs))
		for j, ref := range r.itemRefs {
			mem[j] = memOf[ref]
		}
		ok[k] = !s.failed && batchReply(mem).rank == s.rep.rank
	}
	return nil
}

// parallel runs f over [0, n) on `clients` goroutines, each with its
// own mirror over the shared caches.
func parallel(n int, f func(m *mirror, k int) error, mc *mirrorCaches, readOnly bool) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &mirror{readOnly: readOnly, mirrorCaches: mc}
			for k := c; k < n; k += clients {
				if err := f(m, k); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
