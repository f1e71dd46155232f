package crowdmax_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"crowdmax"
)

// ExampleSession_FindMax runs the two-phase algorithm end to end on a
// calibrated random instance.
func ExampleSession_FindMax() {
	r := crowdmax.NewRand(2015)
	cal, err := crowdmax.CalibratedUniform(1000, 10, 4, r.Child("data"))
	if err != nil {
		log.Fatal(err)
	}
	session, err := crowdmax.NewSession(crowdmax.Config{
		Naive:  crowdmax.NewThresholdWorker(cal.DeltaN, 0, r.Child("naive")),
		Expert: crowdmax.NewThresholdWorker(cal.DeltaE, 0, r.Child("expert")),
		Un:     10,
		Prices: crowdmax.Prices{Naive: 1, Expert: 50},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.FindMax(cal.Set.Items())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true rank of result: %d\n", cal.Set.Rank(res.Best.ID))
	fmt.Printf("candidates within bound: %v\n", len(res.Candidates) <= 19)
	fmt.Printf("within guarantee: %v\n", math.Abs(cal.Set.Max().Value-res.Best.Value) <= 2*cal.DeltaE)
	// Output:
	// true rank of result: 1
	// candidates within bound: true
	// within guarantee: true
}

// ExampleFilter runs phase 1 alone: cheap workers shrink 1000 elements to a
// handful of candidates guaranteed to contain the maximum.
func ExampleFilter() {
	r := crowdmax.NewRand(7)
	cal, err := crowdmax.CalibratedUniform(1000, 8, 2, r.Child("data"))
	if err != nil {
		log.Fatal(err)
	}
	ledger := crowdmax.NewLedger()
	naive := crowdmax.NewOracle(
		crowdmax.NewThresholdWorker(cal.DeltaN, 0, r.Child("w")),
		crowdmax.Naive, ledger, crowdmax.NewMemo(cal.Set.Len()))
	candidates, err := crowdmax.Filter(context.Background(), cal.Set.Items(), naive, crowdmax.FilterOptions{Un: 8})
	if err != nil {
		log.Fatal(err)
	}
	maxKept := false
	for _, c := range candidates {
		if c.ID == cal.Set.Max().ID {
			maxKept = true
		}
	}
	fmt.Printf("candidates ≤ 2·un−1: %v\n", len(candidates) <= 15)
	fmt.Printf("maximum kept: %v\n", maxKept)
	fmt.Printf("comparisons within 4·n·un: %v\n", ledger.Naive() <= 4*1000*8)
	// Output:
	// candidates ≤ 2·un−1: true
	// maximum kept: true
	// comparisons within 4·n·un: true
}

// ExampleEstimateUn estimates the filter parameter from gold data
// (Algorithm 4) instead of assuming it.
func ExampleEstimateUn() {
	r := crowdmax.NewRand(11)
	cal, err := crowdmax.CalibratedUniform(500, 10, 3, r.Child("data"))
	if err != nil {
		log.Fatal(err)
	}
	naive := crowdmax.NewOracle(
		crowdmax.NewThresholdWorker(cal.DeltaN, 0, r.Child("w")),
		crowdmax.Naive, nil, nil)
	est, err := crowdmax.EstimateUn(context.Background(), cal.Set.Items(), naive, crowdmax.EstimateUnOptions{
		Perr: 0.5,
		N:    500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate upper-bounds the true un: %v\n", est >= 10)
	// Output:
	// estimate upper-bounds the true un: true
}

// ExampleCascadeFindMax composes three worker classes into a funnel.
func ExampleCascadeFindMax() {
	r := crowdmax.NewRand(13)
	set := crowdmax.UniformDataset(800, 0, 1, r.Child("data"))
	us := []int{30, 8, 2}
	levels := make([]crowdmax.Level, len(us))
	for i, u := range us {
		delta, err := set.DeltaForU(u)
		if err != nil {
			log.Fatal(err)
		}
		levels[i] = crowdmax.Level{
			Oracle: crowdmax.NewOracle(
				crowdmax.NewThresholdWorker(delta, 0, r.ChildN("w", i)),
				crowdmax.Class(i), nil, nil),
			U: u,
		}
	}
	res, err := crowdmax.CascadeFindMax(context.Background(), set.Items(), crowdmax.CascadeOptions{Levels: levels})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter stages: %d\n", len(res.Candidates))
	fmt.Printf("result in top 4: %v\n", set.Rank(res.Best.ID) <= 4)
	// Output:
	// filter stages: 2
	// result in top 4: true
}
