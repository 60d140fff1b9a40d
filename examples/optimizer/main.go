// Optimizer: use the cost model the way a query optimizer would — given
// the logical data volumes (the paper assumes a perfect oracle for
// those), enumerate the physical join algorithms, cost each one's data
// access pattern, and pick the cheapest per input size. The output
// shows the crossover points the paper's introduction motivates:
// hash join wins while its table fits the caches, and partitioned hash
// join takes over for large inputs. Nested-loop join is offered only
// while one input has at most 1024 tuples, so its column is "-" beyond
// that.
//
// The join is a 2-relation query priced through the same plan search
// every query goes through (repro/pkg/costmodel/scenario,
// PricePlanTreesSearch), the consumer the model was designed for.
//
// Run with: go run ./examples/optimizer
package main

import (
	"fmt"
	"log"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
)

func main() {
	h := costmodel.Origin2000()

	fmt.Println("Equi-join of U and V (|U| = |V| = n, 16-byte tuples, 24-byte output) on the Origin2000.")
	fmt.Println("Predicted total time per algorithm (Eq. 6.1), cheapest marked *:")
	fmt.Println()

	// Fixed display columns (the ranking is sorted cheapest-first,
	// which varies by n).
	algs := []costmodel.Algorithm{
		costmodel.NestedLoopJoin, costmodel.SortMergeJoin,
		costmodel.HashJoin, costmodel.PartitionedHashJoin,
	}
	fmt.Printf("%-10s", "n")
	for _, a := range algs {
		fmt.Printf(" %24s", a)
	}
	fmt.Println()

	for n := int64(1 << 10); n <= 1<<22; n *= 4 {
		q := scenario.Query{
			Relations: []scenario.Relation{
				{Name: "U", Tuples: n, Width: 16},
				{Name: "V", Tuples: n, Width: 16},
			},
			Joins: []scenario.JoinEdge{{Left: 0, Right: 1, Selectivity: 1 / float64(n)}},
		}
		// TopK -1 keeps every plan, so each algorithm's cheapest
		// variant (join order, fan-out) reaches the ranking.
		priced, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{TopK: -1})
		if err != nil {
			log.Fatal(err)
		}
		best := priced[0].Tree.Algorithm
		cheapest := map[costmodel.Algorithm]costmodel.Plan{}
		for _, pp := range priced {
			a := pp.Tree.Algorithm
			if cur, ok := cheapest[a]; !ok || pp.Plan.TotalNS() < cur.TotalNS() {
				cheapest[a] = pp.Plan
			}
		}
		fmt.Printf("%-10d", n)
		for _, a := range algs {
			p, ok := cheapest[a]
			if !ok { // not enumerated at this n
				fmt.Printf(" %24s", "-")
				continue
			}
			mark := " "
			if a == best {
				mark = "*"
			}
			fmt.Printf(" %22.1fms%s", p.TotalNS()/1e6, mark)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Reading the table: nested-loop is enumerated only while an input has")
	fmt.Println("at most 1024 tuples, and loses even there; plain hash join wins in the")
	fmt.Println("mid range until its hash table outgrows L2; partitioning pays for")
	fmt.Println("itself on large inputs exactly as the paper's Figure 7e shows.")
}
