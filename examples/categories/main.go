// Categories: the §5.3 scalability scenario — align growing DBpedia-like
// category graphs and watch how the running time of each method scales
// with input size (the paper's Figure 16 trend: roughly proportional to
// the size of the input graphs).
//
// Run with: go run ./examples/categories
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rdfalign"
)

func main() {
	d, err := rdfalign.GenerateDBpedia(rdfalign.DBpediaConfig{
		Versions: 6,
		Scale:    0.002,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, g := range d.Graphs {
		fmt.Printf("v%-2d %s\n", i+1, rdfalign.GatherStats(g))
	}

	// One session per method, reused across every consecutive version
	// pair — the Aligner holds the validated configuration; each Align
	// call gets its own deadline. WithParallelism spreads the Overlap
	// method's matching scans across the machine's cores.
	methods := []rdfalign.Method{rdfalign.Trivial, rdfalign.Hybrid, rdfalign.Overlap}
	sessions := map[rdfalign.Method]*rdfalign.Aligner{}
	for _, m := range methods {
		al, err := rdfalign.NewAligner(rdfalign.WithMethod(m), rdfalign.WithParallelism(0))
		if err != nil {
			log.Fatal(err)
		}
		sessions[m] = al
	}

	fmt.Println("\npair   triples(sum)  trivial      hybrid       overlap")
	for v := 0; v+1 < len(d.Graphs); v++ {
		g1, g2 := d.Graphs[v], d.Graphs[v+1]
		sum := g1.NumTriples() + g2.NumTriples()

		times := map[rdfalign.Method]time.Duration{}
		for _, m := range methods {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			start := time.Now()
			if _, err := sessions[m].Align(ctx, g1, g2); err != nil {
				log.Fatal(err)
			}
			times[m] = time.Since(start)
			cancel()
		}
		fmt.Printf("%d-%-4d %12d  %-11s  %-11s  %s\n", v+1, v+2, sum,
			times[rdfalign.Trivial].Round(time.Millisecond),
			times[rdfalign.Hybrid].Round(time.Millisecond),
			times[rdfalign.Overlap].Round(time.Millisecond))
	}
}
