package main

import (
	"encoding/json"
	"testing"
)

// sequence renders the first n requests of a workload as the server
// would receive them.
func sequence(t *testing.T, name string, seed uint64, n int) []string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		r := w.at(i)
		var body any = r.plan
		if r.batch != nil {
			body = r.batch
		}
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(buf)
	}
	return out
}

func TestSequenceIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	const n = 200
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := sequence(t, name, 1, n), sequence(t, name, 1, n)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed 1 request %d differs between two generations", i)
				}
			}
			c := sequence(t, name, 2, n)
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == n {
				t.Fatalf("seeds 1 and 2 generate the same %d requests", n)
			}
		})
	}
}

func TestDeckSendsEveryValueOncePerBlock(t *testing.T) {
	const size = 34
	for block := range 3 {
		seen := make([]bool, size)
		for i := block * size; i < (block+1)*size; i++ {
			v := deck(7, "test", i, size)
			if seen[v] {
				t.Fatalf("block %d sends %d twice", block, v)
			}
			seen[v] = true
		}
	}
}
