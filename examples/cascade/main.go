// Cascade demonstrates the paper's multi-class extension (Section 3.3): a
// three-tier workforce — a machine-learning model (free-ish, coarse), crowd
// workers (cheap, medium), and a hired professional (expensive, fine) —
// finding the best element of a large set. Each tier filters the input for
// the next, so the professional only ever sees a handful of finalists.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdmax"
)

func main() {
	r := crowdmax.NewRand(31)
	const n = 5000

	// Generate the instance and calibrate each tier's discernment: the ML
	// model confuses the top 60 elements, the crowd the top 12, the
	// professional only the top 3.
	set := crowdmax.UniformDataset(n, 0, 1, r.Child("data"))
	us := []int{60, 12, 3}
	deltas := make([]float64, len(us))
	for i, u := range us {
		d, err := set.DeltaForU(u)
		if err != nil {
			log.Fatal(err)
		}
		deltas[i] = d
	}
	fmt.Printf("instance: %d elements; tier discernment u = %v\n\n", n, us)

	// Per-comparison prices: the ML model is ~free, the crowd costs 1,
	// the professional 100.
	prices := []float64{0.01, 1, 100}
	names := []string{"ML model", "crowd", "professional"}

	ledgers := make([]*crowdmax.Ledger, len(us))
	levels := make([]crowdmax.Level, len(us))
	for i := range us {
		ledgers[i] = crowdmax.NewLedger()
		w := crowdmax.NewThresholdWorker(deltas[i], 0, r.ChildN("tier", i))
		levels[i] = crowdmax.Level{
			Oracle: crowdmax.NewOracle(w, crowdmax.Class(i), ledgers[i], crowdmax.NewMemo(set.Len())),
			U:      us[i],
		}
	}

	res, err := crowdmax.CascadeFindMax(context.Background(), set.Items(), crowdmax.CascadeOptions{Levels: levels})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("funnel:")
	fmt.Printf("  input                 %6d elements\n", n)
	totalCost := 0.0
	for i := range us {
		comparisons := ledgers[i].Comparisons(crowdmax.Class(i))
		cost := float64(comparisons) * prices[i]
		totalCost += cost
		stage := "final pick"
		if i < len(res.Candidates) {
			stage = fmt.Sprintf("%6d survivors", len(res.Candidates[i]))
		}
		fmt.Printf("  %-12s → %s   (%d comparisons, cost %.2f)\n",
			names[i], stage, comparisons, cost)
	}
	fmt.Printf("\nresult: value %.4f, true rank %d of %d\n",
		res.Best.Value, set.Rank(res.Best.ID), n)
	fmt.Printf("total cost: %.2f\n\n", totalCost)

	// Contrast: hand the professional the whole input.
	direct := crowdmax.NewLedger()
	pw := crowdmax.NewThresholdWorker(deltas[2], 0, r.Child("direct"))
	po := crowdmax.NewOracle(pw, crowdmax.Expert, direct, crowdmax.NewMemo(set.Len()))
	best, err := crowdmax.TwoMaxFind(context.Background(), set.Items(), po)
	if err != nil {
		log.Fatal(err)
	}
	directCost := float64(direct.Expert()) * prices[2]
	fmt.Printf("professional-only baseline: true rank %d, %d comparisons, cost %.2f (%.0f× the cascade)\n",
		set.Rank(best.ID), direct.Expert(), directCost, directCost/totalCost)
}
