// Quickstart: find the (approximate) maximum of a random instance with the
// two-phase expert-aware algorithm, and compare what it cost against doing
// everything with experts.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdmax"
)

func main() {
	r := crowdmax.NewRand(42)

	// A random instance of 2000 elements, with thresholds calibrated so
	// that 10 elements are naïve-indistinguishable from the maximum and
	// 4 are expert-indistinguishable.
	cal, err := crowdmax.CalibratedUniform(2000, 10, 4, r.Child("data"))
	if err != nil {
		log.Fatal(err)
	}
	set := cal.Set
	fmt.Printf("instance: %d elements, true max value %.4f\n", set.Len(), set.Max().Value)
	fmt.Printf("worker thresholds: naive δn=%.4g, expert δe=%.4g\n", cal.DeltaN, cal.DeltaE)

	// Workers follow the threshold model T(δ, ε): arbitrary answers below
	// their threshold, correct (ε = 0) above it.
	session, err := crowdmax.NewSession(crowdmax.Config{
		Naive:  crowdmax.NewThresholdWorker(cal.DeltaN, 0, r.Child("naive")),
		Expert: crowdmax.NewThresholdWorker(cal.DeltaE, 0, r.Child("expert")),
		Un:     10,
		Prices: crowdmax.Prices{Naive: 1, Expert: 50},
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := session.FindMax(set.Items())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntwo-phase result: value %.4f, true rank %d\n", res.Best.Value, set.Rank(res.Best.ID))
	fmt.Printf("phase 1 kept %d candidates (guaranteed ≤ %d)\n", len(res.Candidates), 2*10-1)
	fmt.Printf("cost: %d naive + %d expert comparisons = %.0f monetary units\n",
		res.NaiveComparisons, res.ExpertComparisons, res.Cost)

	// Baseline: run 2-MaxFind with experts over the whole input.
	ledger := crowdmax.NewLedger()
	eo := crowdmax.NewOracle(crowdmax.NewThresholdWorker(cal.DeltaE, 0, r.Child("e2")),
		crowdmax.Expert, ledger, crowdmax.NewMemo(set.Len()))
	best, err := crowdmax.TwoMaxFind(context.Background(), set.Items(), eo)
	if err != nil {
		log.Fatal(err)
	}
	baseCost := ledger.Cost(crowdmax.Prices{Naive: 1, Expert: 50})
	fmt.Printf("\nexpert-only baseline: value %.4f, true rank %d, cost %.0f\n",
		best.Value, set.Rank(best.ID), baseCost)
	fmt.Printf("savings from prefiltering with cheap naive workers: %.0f%%\n",
		100*(1-res.Cost/baseCost))
}
